// Command lejitd is the LeJIT serving daemon: it loads domain packs (model +
// rule set + decode shape bundles) once, then serves rule-compliant
// imputation/generation over HTTP with per-request pack selection, dynamic
// micro-batching, bounded-queue backpressure, per-request deadlines,
// Prometheus metrics, rule hot-reload, and graceful drain on SIGTERM.
//
// Endpoints:
//
//	POST /v1/impute       {"pack": "telemetry", "known": {"TotalIngress": [100], ...}, "seed": 1}
//	POST /v1/generate     {"pack": "routercfg", "seed": 2}
//	POST /v1/check        {"pack": "fincompliance", "record": {...}}
//	GET  /v1/packs
//	POST /v1/packs/reload {"pack": "telemetry", "rules": "rule r1: ..."}
//	GET  /healthz
//	GET  /metrics
//
// Examples:
//
//	lejitd -model model.gob -rules rules.txt -addr :8080
//	lejitd -demo                      # self-contained: trains tiny models in-process
//	lejitd -demo -batch-window 5ms -max-batch 16 -queue 128
//	lejitd -model model.gob -pack pack.manifest:pack.rules
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/pack"
	"repro/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lejitd:", err)
		os.Exit(1)
	}
}

// packFlags collects repeated -pack MANIFEST:RULES[:MODEL] values.
type packFlags []string

func (p *packFlags) String() string     { return strings.Join(*p, ",") }
func (p *packFlags) Set(v string) error { *p = append(*p, v); return nil }

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	modelPath := flag.String("model", "", "trained telemetry model file (see 'lejit train'); required unless -demo")
	rulePath := flag.String("rules", "", "telemetry rule file (see 'lejit mine'); optional with -demo")
	demo := flag.Bool("demo", false, "self-contained demo: train tiny models and mine rules in-process; serves the telemetry, routercfg, and fincompliance packs")
	temp := flag.Float64("temp", 0.9, "sampling temperature")
	var extraPacks packFlags
	flag.Var(&extraPacks, "pack", "extra domain pack as MANIFEST:RULES[:MODEL] file paths (repeatable); without MODEL the pack decodes under a uniform LM")
	defaultPack := flag.String("default-pack", pack.TelemetryName, "pack used by requests that do not select one")
	batchWindow := flag.Duration("batch-window", 2*time.Millisecond, "how long the batcher holds the micro-batch open after its first request's admission (a request that queued longer dispatches at once)")
	maxBatch := flag.Int("max-batch", 32, "max records coalesced per decode batch")
	queueDepth := flag.Int("queue", 256, "admission queue depth (a full queue answers 429)")
	workers := flag.Int("workers", 0, "decode workers per batch (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound after SIGTERM")
	seed := flag.Int64("seed", 1, "base seed for requests that do not pin their own")
	solverBudget := flag.Uint64("solver-budget", 0, "max solver search nodes per SMT check; an exhausted check fails only its own request with 503 (0 = solver default)")
	solverTimeout := flag.Duration("solver-timeout", 0, "wall-clock budget per SMT check (0 = none)")
	degradedThreshold := flag.Int("degraded-threshold", 0, "report /healthz status \"degraded\" once this many requests exhausted their solver budget (0 = disabled)")
	prefixCacheMB := flag.Int("prefix-cache-mb", 64, "per-pack cross-request prefix cache budget in MiB: decodes sharing a prompt prefix reuse transformer KV and solver state across batches (0 = disabled)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060); off when empty, never on the public listener")
	flag.Parse()

	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	reg, err := buildRegistry(*modelPath, *rulePath, extraPacks, *demo, *temp, *prefixCacheMB, logf)
	if err != nil {
		return err
	}
	// Budgets are engine state, so they apply per registered pack — and ride
	// along across hot reloads, which rebuild engines from the current
	// configuration.
	for _, name := range reg.Names() {
		pk, _ := reg.Get(name)
		if *solverBudget > 0 || *solverTimeout > 0 {
			pk.Engine.SetSolverBudget(*solverBudget, *solverTimeout)
		}
	}
	srv, err := server.New(server.Config{
		Packs: reg, DefaultPack: *defaultPack,
		BatchWindow: *batchWindow, MaxBatch: *maxBatch, QueueDepth: *queueDepth,
		Workers: *workers, Timeout: *timeout, DrainTimeout: *drainTimeout,
		Seed: *seed, DegradedThreshold: *degradedThreshold,
		Logf: logf,
	})
	if err != nil {
		return err
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// SIGTERM/SIGINT cancel the context; Serve then drains in-flight
	// requests (bounded by -drain-timeout) before returning.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *pprofAddr != "" {
		// Profiling stays on its own listener with its own explicit mux.
		// (The net/http/pprof import also registers on DefaultServeMux, but
		// the public listener serves the server package's private mux, so
		// the debug handlers are reachable only here.)
		pl, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Handler: pmux}
		go psrv.Serve(pl)
		defer psrv.Close()
		logf("lejitd: pprof on %s", pl.Addr())
	}
	logf("lejitd: serving packs %v on %s (default %s, batch window %v, max batch %d, queue %d)",
		reg.Names(), l.Addr(), *defaultPack, *batchWindow, *maxBatch, *queueDepth)
	return srv.Serve(ctx, l)
}

// buildRegistry assembles the domain-pack registry: the telemetry pack from
// artifact files (or the in-process demo environment), the demo's two extra
// built-in packs, and any -pack MANIFEST:RULES[:MODEL] bundles.
func buildRegistry(modelPath, rulePath string, extra []string, demo bool, temp float64, prefixCacheMB int, logf func(string, ...any)) (*pack.Registry, error) {
	reg := pack.NewRegistry(int64(prefixCacheMB) << 20)

	telemetryDef, err := telemetryDefinition(modelPath, rulePath, demo, temp)
	if err != nil {
		return nil, err
	}
	pk, err := pack.Compile(*telemetryDef)
	if err != nil {
		return nil, err
	}
	if err := reg.Register(pk); err != nil {
		return nil, err
	}

	if demo {
		// The demo serves the two other built-in packs as well, each with a
		// tiny transformer trained on its example corpus in-process.
		for _, def := range []pack.Definition{pack.RouterCfgDefinition(nil), pack.FinComplianceDefinition(nil)} {
			logf("lejitd: training %s demo model (%d examples)", def.Name, len(def.Examples))
			if err := pack.TrainLM(&def, pack.TrainLMConfig{Logf: logf}); err != nil {
				return nil, fmt.Errorf("pack %s: %w", def.Name, err)
			}
			def.Temperature = temp
			pk, err := pack.Compile(def)
			if err != nil {
				return nil, fmt.Errorf("pack %s: %w", def.Name, err)
			}
			if err := reg.Register(pk); err != nil {
				return nil, err
			}
		}
	}

	for _, spec := range extra {
		pk, err := loadPackSpec(spec)
		if err != nil {
			return nil, err
		}
		if err := reg.Register(pk); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// telemetryDefinition builds the telemetry pack definition from artifact
// files or the demo environment.
func telemetryDefinition(modelPath, rulePath string, demo bool, temp float64) (*pack.Definition, error) {
	if demo && modelPath == "" {
		sc := experiments.TinyScale()
		sc.Quiet = false
		env, err := experiments.Prepare(sc)
		if err != nil {
			return nil, err
		}
		def := pack.TelemetryDefinition(core.WrapNN(env.Model), env.ImputeRules.String(), temp, nil)
		return &def, nil
	}
	if modelPath == "" {
		return nil, fmt.Errorf("-model is required (or pass -demo)")
	}
	f, err := os.Open(modelPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := nn.Load(f)
	if err != nil {
		return nil, err
	}
	ruleText := ""
	if rulePath != "" {
		src, err := os.ReadFile(rulePath)
		if err != nil {
			return nil, err
		}
		ruleText = string(src)
	}
	def := pack.TelemetryDefinition(core.WrapNN(m), ruleText, temp, nil)
	return &def, nil
}

// loadPackSpec parses one -pack MANIFEST:RULES[:MODEL] value into a compiled
// pack.
func loadPackSpec(spec string) (*pack.Compiled, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 2 && len(parts) != 3 {
		return nil, fmt.Errorf("-pack %q: want MANIFEST:RULES[:MODEL]", spec)
	}
	manifest, err := os.ReadFile(parts[0])
	if err != nil {
		return nil, fmt.Errorf("-pack %q: %w", spec, err)
	}
	ruleSrc, err := os.ReadFile(parts[1])
	if err != nil {
		return nil, fmt.Errorf("-pack %q: %w", spec, err)
	}
	var lm core.LM
	if len(parts) == 3 {
		f, err := os.Open(parts[2])
		if err != nil {
			return nil, fmt.Errorf("-pack %q: %w", spec, err)
		}
		defer f.Close()
		m, err := nn.Load(f)
		if err != nil {
			return nil, fmt.Errorf("-pack %q: %w", spec, err)
		}
		lm = core.WrapNN(m)
	}
	return pack.Load(string(manifest), string(ruleSrc), lm)
}
