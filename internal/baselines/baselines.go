// Package baselines implements the task-specific systems the paper compares
// LeJIT against (§4 "Baselines"). Each is the canonical statistical core of
// its namesake, substituted per DESIGN.md §1:
//
//   - Zoom2Net  → MLP imputer + ILP Constraint Enforcement Module over the
//     four manual rules (zoom2net.go),
//   - NetShare  → per-dimension quantized first-order Markov generator
//     (netshare.go),
//   - E-WGAN-GP → full-covariance Gaussian density fit (gaussian.go),
//   - CTGAN     → mode-clustered (k-means) empirical mixture (mixture.go),
//   - TVAE      → linear VAE via PCA latents (tvae.go),
//   - REaLTabFormer → a second from-scratch transformer decoded with
//     structural masking; being GPT-2-based itself, it is exactly
//     core.Engine in StructureOnly mode and lives in internal/experiments.
//
// All generators implement Generator and operate on the flattened record
// vector in schema field order.
package baselines

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/rules"
)

// Generator is an unconditional synthetic-record generator.
type Generator interface {
	// Name identifies the generator in reports.
	Name() string
	// Fit learns from training records.
	Fit(recs []rules.Record) error
	// Sample draws one synthetic record.
	Sample(rng *rand.Rand) (rules.Record, error)
}

// layout flattens a schema into an ordered list of (field, index) slots so
// records convert to/from plain vectors.
type layout struct {
	schema *rules.Schema
	fields []rules.Field
	// dims[i] describes flat position i.
	dims []dim
}

type dim struct {
	field  string
	index  int
	lo, hi int64
}

func newLayout(schema *rules.Schema) *layout {
	l := &layout{schema: schema, fields: schema.Fields()}
	for _, f := range l.fields {
		for i := 0; i < f.Len; i++ {
			l.dims = append(l.dims, dim{field: f.Name, index: i, lo: f.Lo, hi: f.Hi})
		}
	}
	return l
}

func (l *layout) size() int { return len(l.dims) }

// vectorize flattens a record; it errors on missing fields.
func (l *layout) vectorize(rec rules.Record) ([]float64, error) {
	out := make([]float64, 0, l.size())
	for _, d := range l.dims {
		vs, ok := rec[d.field]
		if !ok || d.index >= len(vs) {
			return nil, fmt.Errorf("baselines: record missing %s[%d]", d.field, d.index)
		}
		out = append(out, float64(vs[d.index]))
	}
	return out, nil
}

// devectorize rounds, clamps to the domain, and rebuilds a record.
func (l *layout) devectorize(v []float64) rules.Record {
	rec := rules.Record{}
	for _, f := range l.fields {
		rec[f.Name] = make([]int64, f.Len)
	}
	for i, d := range l.dims {
		x := int64(math.Round(v[i]))
		if x < d.lo {
			x = d.lo
		}
		if x > d.hi {
			x = d.hi
		}
		rec[d.field][d.index] = x
	}
	return rec
}

// matrix converts a corpus into row vectors.
func (l *layout) matrix(recs []rules.Record) ([][]float64, error) {
	out := make([][]float64, len(recs))
	for i, rec := range recs {
		v, err := l.vectorize(rec)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// meanStd computes per-dimension mean and standard deviation (σ floored at
// a tiny epsilon so standardization never divides by zero).
func meanStd(rows [][]float64) (mean, std []float64) {
	n := len(rows)
	d := len(rows[0])
	mean = make([]float64, d)
	std = make([]float64, d)
	for _, r := range rows {
		for j, v := range r {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	for _, r := range rows {
		for j, v := range r {
			dv := v - mean[j]
			std[j] += dv * dv
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / float64(n))
		if std[j] < 1e-9 {
			std[j] = 1e-9
		}
	}
	return mean, std
}
