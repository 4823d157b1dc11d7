package pack

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/rules"
)

// TrainLMConfig sizes the tiny per-pack transformer the demo and benchmark
// layers train on a pack's example corpus. The zero value gives the
// demo-scale model (dim 32, 1 layer, 2 heads, 2 epochs, context 48).
type TrainLMConfig struct {
	Dim, Heads, Layers int
	Ctx                int
	Epochs             int
	Seed               int64
	Logf               func(format string, args ...any)
}

func (c *TrainLMConfig) fill() {
	if c.Dim == 0 {
		c.Dim = 32
	}
	if c.Heads == 0 {
		c.Heads = 2
	}
	if c.Layers == 0 {
		c.Layers = 1
	}
	if c.Ctx == 0 {
		c.Ctx = 48
	}
	if c.Epochs == 0 {
		c.Epochs = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// TrainLM trains a tiny transformer on the definition's example corpus (in
// the pack's own text format) and installs it as the definition's LM. It is
// how the demo daemon and the pack benchmark give the two non-telemetry
// packs a statistical model without shipping weights.
func TrainLM(def *Definition, tc TrainLMConfig) error {
	tc.fill()
	if len(def.Examples) == 0 {
		return fmt.Errorf("pack %s: no examples to train on", def.Name)
	}
	tok, err := def.Tokenizer()
	if err != nil {
		return err
	}
	slots, err := def.Slots()
	if err != nil {
		return err
	}
	seqs := make([][]int, 0, len(def.Examples))
	for i, rec := range def.Examples {
		line, err := formatBySlots(slots, rec)
		if err != nil {
			return fmt.Errorf("pack %s: example %d: %w", def.Name, i, err)
		}
		seq, err := tok.EncodeSeq(line)
		if err != nil {
			return fmt.Errorf("pack %s: example %d: %w", def.Name, i, err)
		}
		if len(seq) > tc.Ctx {
			return fmt.Errorf("pack %s: example %d needs %d tokens, context is %d", def.Name, i, len(seq), tc.Ctx)
		}
		seqs = append(seqs, seq)
	}
	m, err := nn.New(nn.Config{
		Vocab: tok.Size(), Ctx: tc.Ctx,
		Dim: tc.Dim, Heads: tc.Heads, Layers: tc.Layers,
	}, tc.Seed)
	if err != nil {
		return err
	}
	if _, err := m.Train(seqs, nn.TrainConfig{Epochs: tc.Epochs, Seed: tc.Seed, LogEvery: 200, Logf: tc.Logf}); err != nil {
		return err
	}
	def.LM = core.WrapNN(m)
	return nil
}

// formatBySlots renders a record through an explicit slot list: the one
// record formatter, behind Compiled.FormatRecord and, before a compile,
// TrainLM.
func formatBySlots(slots []core.Slot, rec rules.Record) (string, error) {
	var b []byte
	for _, sl := range slots {
		vs, ok := rec[sl.Field]
		if !ok || sl.Index >= len(vs) {
			return "", fmt.Errorf("record missing %s[%d]", sl.Field, sl.Index)
		}
		b = strconv.AppendInt(b, vs[sl.Index], 10)
		b = append(b, sl.Sep)
	}
	return string(b), nil
}
