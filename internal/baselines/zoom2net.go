package baselines

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ilp"
	"repro/internal/rules"
	"repro/internal/smt"
)

// Zoom2Net is the task-specific imputation baseline (Gong et al., SIGCOMM
// '24, substituted per DESIGN.md): a small MLP regressor mapping coarse
// counters to the fine-grained series, followed by a Constraint Enforcement
// Module that projects the prediction onto a handful of manual rules via
// L1-minimal integer repair — post-inference enforcement, §2.2.
type Zoom2Net struct {
	schema *rules.Schema
	coarse []string
	fine   string
	manual *rules.RuleSet // the "C4–C7" manual rules; may be nil (no CEM)
	cfg    Z2NConfig

	inDim, outDim  int
	inHi, outHi    []float64 // normalization scales
	w1, b1, w2, b2 []float64 // MLP parameters (hidden tanh)
	fitted         bool
}

// Z2NConfig tunes the regressor.
type Z2NConfig struct {
	Hidden int     // hidden width (0 → 32)
	Epochs int     // training epochs (0 → 60)
	LR     float64 // SGD learning rate (0 → 0.05)
	Seed   int64
}

func (c *Z2NConfig) fill() {
	if c.Hidden == 0 {
		c.Hidden = 32
	}
	if c.Epochs == 0 {
		c.Epochs = 60
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
}

// NewZoom2Net builds the imputer. manual is the CEM rule set (pass nil to
// disable enforcement, i.e. the bare regressor).
func NewZoom2Net(schema *rules.Schema, coarse []string, fine string, manual *rules.RuleSet, cfg Z2NConfig) (*Zoom2Net, error) {
	cfg.fill()
	z := &Zoom2Net{schema: schema, coarse: coarse, fine: fine, manual: manual, cfg: cfg}
	for _, name := range coarse {
		f, ok := schema.Field(name)
		if !ok || f.Kind != rules.Scalar {
			return nil, fmt.Errorf("baselines: coarse field %q invalid", name)
		}
		z.inHi = append(z.inHi, float64(f.Hi))
	}
	f, ok := schema.Field(fine)
	if !ok || f.Kind != rules.Vector {
		return nil, fmt.Errorf("baselines: fine field %q invalid", fine)
	}
	z.inDim = len(coarse)
	z.outDim = f.Len
	for i := 0; i < f.Len; i++ {
		z.outHi = append(z.outHi, float64(f.Hi))
	}
	return z, nil
}

// Fit trains the MLP with SGD on normalized inputs/targets.
func (z *Zoom2Net) Fit(recs []rules.Record) error {
	if len(recs) == 0 {
		return fmt.Errorf("baselines: empty training set")
	}
	rng := rand.New(rand.NewSource(z.cfg.Seed))
	h := z.cfg.Hidden
	z.w1 = randSlice(rng, z.inDim*h, 1/math.Sqrt(float64(z.inDim)))
	z.b1 = make([]float64, h)
	z.w2 = randSlice(rng, h*z.outDim, 1/math.Sqrt(float64(h)))
	z.b2 = make([]float64, z.outDim)

	xs := make([][]float64, len(recs))
	ys := make([][]float64, len(recs))
	for i, rec := range recs {
		x, y, err := z.normalize(rec)
		if err != nil {
			return err
		}
		xs[i], ys[i] = x, y
	}

	order := rng.Perm(len(recs))
	for epoch := 0; epoch < z.cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		lr := z.cfg.LR / (1 + 0.05*float64(epoch))
		for _, idx := range order {
			z.sgdStep(xs[idx], ys[idx], lr)
		}
	}
	z.fitted = true
	return nil
}

func (z *Zoom2Net) normalize(rec rules.Record) (x, y []float64, err error) {
	for i, name := range z.coarse {
		vs, ok := rec[name]
		if !ok {
			return nil, nil, fmt.Errorf("baselines: record missing %q", name)
		}
		x = append(x, float64(vs[0])/z.inHi[i])
	}
	vs, ok := rec[z.fine]
	if !ok {
		return nil, nil, fmt.Errorf("baselines: record missing %q", z.fine)
	}
	for i, v := range vs {
		y = append(y, float64(v)/z.outHi[i])
	}
	return x, y, nil
}

// sgdStep runs one forward/backward/update on a single example (MSE loss).
func (z *Zoom2Net) sgdStep(x, y []float64, lr float64) {
	h := z.cfg.Hidden
	hid := make([]float64, h)
	for j := 0; j < h; j++ {
		s := z.b1[j]
		for i := 0; i < z.inDim; i++ {
			s += x[i] * z.w1[i*h+j]
		}
		hid[j] = math.Tanh(s)
	}
	out := make([]float64, z.outDim)
	for k := 0; k < z.outDim; k++ {
		s := z.b2[k]
		for j := 0; j < h; j++ {
			s += hid[j] * z.w2[j*z.outDim+k]
		}
		out[k] = s
	}
	// Backward.
	dOut := make([]float64, z.outDim)
	for k := range dOut {
		dOut[k] = 2 * (out[k] - y[k]) / float64(z.outDim)
	}
	dHid := make([]float64, h)
	for j := 0; j < h; j++ {
		for k := 0; k < z.outDim; k++ {
			dHid[j] += dOut[k] * z.w2[j*z.outDim+k]
			z.w2[j*z.outDim+k] -= lr * dOut[k] * hid[j]
		}
		dHid[j] *= 1 - hid[j]*hid[j]
	}
	for k := 0; k < z.outDim; k++ {
		z.b2[k] -= lr * dOut[k]
	}
	for i := 0; i < z.inDim; i++ {
		for j := 0; j < h; j++ {
			z.w1[i*h+j] -= lr * dHid[j] * x[i]
		}
	}
	for j := 0; j < h; j++ {
		z.b1[j] -= lr * dHid[j]
	}
}

// predict runs the MLP and denormalizes to raw fine-grained values.
func (z *Zoom2Net) predict(known rules.Record) ([]int64, error) {
	x := make([]float64, 0, z.inDim)
	for i, name := range z.coarse {
		vs, ok := known[name]
		if !ok {
			return nil, fmt.Errorf("baselines: known record missing %q", name)
		}
		x = append(x, float64(vs[0])/z.inHi[i])
	}
	h := z.cfg.Hidden
	hid := make([]float64, h)
	for j := 0; j < h; j++ {
		s := z.b1[j]
		for i := 0; i < z.inDim; i++ {
			s += x[i] * z.w1[i*h+j]
		}
		hid[j] = math.Tanh(s)
	}
	out := make([]int64, z.outDim)
	f, _ := z.schema.Field(z.fine)
	for k := 0; k < z.outDim; k++ {
		s := z.b2[k]
		for j := 0; j < h; j++ {
			s += hid[j] * z.w2[j*z.outDim+k]
		}
		v := int64(math.Round(s * z.outHi[k]))
		if v < f.Lo {
			v = f.Lo
		}
		if v > f.Hi {
			v = f.Hi
		}
		out[k] = v
	}
	return out, nil
}

// Impute predicts the fine series and, when a manual rule set is configured,
// runs the CEM projection (L1-minimal repair holding the coarse inputs
// fixed). Note the characteristic Zoom2Net behaviour the paper highlights:
// the output satisfies the manual rules, not the full mined set.
func (z *Zoom2Net) Impute(known rules.Record) (rules.Record, error) {
	if !z.fitted {
		return nil, fmt.Errorf("baselines: Zoom2Net not fitted")
	}
	pred, err := z.predict(known)
	if err != nil {
		return nil, err
	}
	rec := known.Clone()
	rec[z.fine] = pred
	if z.manual == nil {
		return rec, nil
	}
	// CEM: project onto the manual rules.
	vs, err := z.manual.Violations(rec)
	if err != nil {
		return nil, err
	}
	if len(vs) == 0 {
		return rec, nil
	}
	s := smt.NewSolver()
	b := rules.Instantiate(s, z.schema)
	compiled, err := z.manual.CompileAll(b)
	if err != nil {
		return nil, err
	}
	s.Assert(compiled)
	for name, vals := range known {
		bv, ok := b.Vars(name)
		if !ok {
			continue
		}
		for i, v := range vals {
			s.Assert(smt.Eq(smt.V(bv[i]), smt.C(v)))
		}
	}
	fineVars, _ := b.Vars(z.fine)
	repaired, st := ilp.Repair(s, fineVars, pred)
	if st != smt.Sat {
		// No compliant projection exists (e.g. contradictory coarse
		// inputs): return the raw prediction, as Zoom2Net's soft CEM
		// would.
		return rec, nil
	}
	out := make([]int64, len(fineVars))
	for i, v := range fineVars {
		out[i] = repaired[v]
	}
	rec[z.fine] = out
	return rec, nil
}

func randSlice(rng *rand.Rand, n int, std float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64() * std
	}
	return out
}
