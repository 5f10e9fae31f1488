package cluster

import (
	"math"
	"strings"
	"testing"

	"op2ca/internal/chaincfg"
	"op2ca/internal/core"
	"op2ca/internal/faults"
	"op2ca/internal/mesh"
	"op2ca/internal/partition"
)

// TestBackoffFactorSaturates: the naive 1<<try expression wraps negative at
// try 63 (and is undefined beyond), which would subtract from virtual time
// instead of backing off. The factor must stay positive, finite and
// non-decreasing for every try the retry budget allows.
func TestBackoffFactorSaturates(t *testing.T) {
	if f := backoffFactor(0); f != 1 {
		t.Errorf("backoffFactor(0) = %g, want 1", f)
	}
	if f := backoffFactor(10); f != 1024 {
		t.Errorf("backoffFactor(10) = %g, want 1024", f)
	}
	prev := 0.0
	for try := 0; try <= maxRetryBudget; try++ {
		f := backoffFactor(try)
		if f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("backoffFactor(%d) = %g, want positive finite", try, f)
		}
		if f < prev {
			t.Fatalf("backoffFactor(%d) = %g < backoffFactor(%d) = %g", try, f, try-1, prev)
		}
		prev = f
	}
	if got, want := backoffFactor(63), backoffFactor(62); got != want {
		t.Errorf("backoffFactor(63) = %g, want the try-62 saturation value %g", got, want)
	}
	// The exact boundary the old expression got wrong.
	one := int64(1)
	if old := float64(one << uint(63)); old >= 0 {
		t.Fatalf("test premise broken: 1<<63 as int64 should be negative, got %g", old)
	}
}

// retryFixture is a minimal valid configuration for New validation tests.
func retryFixture() (m *mesh.FV3D, p *core.Program, nodes *core.Set, assign partition.Assignment) {
	m = mesh.Rotor(6, 5, 4)
	p = core.NewProgram()
	nodes = p.DeclSet(m.NNodes, "nodes")
	edges := p.DeclSet(m.NEdges, "edges")
	p.DeclMap(edges, nodes, 2, m.EdgeNodes, "e2n")
	p.DeclDat(nodes, 1, nil, "x")
	assign = partition.Block(m.NNodes, 2)
	return
}

// TestMaxRetriesValidation: both ways of configuring a retry budget — the
// fault plan's clause and the per-chain override — are bounded, so an absurd
// budget fails fast instead of exponentiating virtual time.
func TestMaxRetriesValidation(t *testing.T) {
	m, p, nodes, assign := retryFixture()
	_ = m
	base := Config{Prog: p, Primary: nodes, Assign: assign, NParts: 2, Depth: 1}

	cfg := base
	cfg.Faults = &faults.Plan{Drop: 0.1, MaxRetries: maxRetryBudget}
	if b, err := New(cfg); err != nil || b.maxRetriesFor(nil) != maxRetryBudget {
		t.Errorf("fault-plan maxretries at the budget should be accepted and used: %v", err)
	}
	cfg.Faults = &faults.Plan{Drop: 0.1, MaxRetries: maxRetryBudget + 1}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "maxretries") {
		t.Errorf("fault-plan maxretries over the budget = %v, want validation error", err)
	}

	chains, err := chaincfg.ParseString("chain big maxretries=2000\n")
	if err != nil {
		t.Fatal(err)
	}
	cfg = base
	cfg.Chains = chains
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "maxretries") {
		t.Errorf("per-chain maxretries over the budget = %v, want validation error", err)
	}
}
