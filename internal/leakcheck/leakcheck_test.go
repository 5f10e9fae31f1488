package leakcheck

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// recorder captures Errorf instead of failing, so the leak report itself
// can be asserted on.
type recorder struct {
	testing.TB
	msg string
}

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.msg = format
}

func TestCheckPassesWhenGoroutinesExit(t *testing.T) {
	done := Check(t)
	stop, exited := make(chan struct{}), make(chan struct{})
	go func() { <-stop; close(exited) }()
	close(stop)
	<-exited
	done()
}

func TestCheckReportsLeak(t *testing.T) {
	defer func(d time.Duration) { settle = d }(settle)
	settle = 20 * time.Millisecond
	r := &recorder{TB: t}
	done := Check(r)
	stop := make(chan struct{})
	var exiting sync.WaitGroup
	defer func() { close(stop); exiting.Wait() }()
	// Several, so the report does not hinge on a goroutine an earlier test
	// told to exit being descheduled for the last time only after the
	// snapshot above (seen under -race and with -count > 1).
	for i := 0; i < 8; i++ {
		exiting.Add(1)
		go func() { defer exiting.Done(); <-stop }()
	}
	done()
	if !strings.Contains(r.msg, "goroutine leak") {
		t.Fatalf("leaked goroutine not reported (message %q)", r.msg)
	}
}
