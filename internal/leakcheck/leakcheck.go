// Package leakcheck is a test helper asserting that a scope stops every
// goroutine it starts. Backend.Close and Service.Close are the only
// teardown of their worker goroutines (no finalizer backs them up), so the
// tests that construct and close them bracket the lifetime with Check.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// settle bounds how long Check waits for goroutines that were told to exit
// to be descheduled for the last time (a variable so this package's own
// test of the failure report need not wait it out).
var settle = 2 * time.Second

// Check snapshots the goroutine count and returns a function that fails t
// if more goroutines are running than at the snapshot once the count has
// settled. Use as `defer leakcheck.Check(t)()`, or call the result
// directly after the teardown under test.
func Check(t testing.TB) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(settle)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				buf = buf[:runtime.Stack(buf, true)]
				t.Errorf("goroutine leak: %d running, %d before\n%s", runtime.NumGoroutine(), before, buf)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
}
