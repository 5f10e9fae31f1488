package service

import (
	"errors"
	"testing"

	"op2ca/internal/cluster"
)

// TestCatchRunTypedFailures: a halo-depth dereference inside an attempt is
// a job failure the worker reports, not a panic that takes the server (and
// every other tenant's job) down; an untyped panic still propagates.
func TestCatchRunTypedFailures(t *testing.T) {
	want := &cluster.HaloDepthError{Rank: 1, Loop: "flux", Iter: 7, Map: "e2n", Slot: 1}
	err := catchRun(func() error { panic(want) })
	var he *cluster.HaloDepthError
	if !errors.As(err, &he) || he != want {
		t.Errorf("catchRun returned %v, want the *HaloDepthError it recovered", err)
	}
	defer func() {
		if r := recover(); r != "bug" {
			t.Errorf("untyped panic: recovered %v, want it re-raised", r)
		}
	}()
	catchRun(func() error { panic("bug") })
}
