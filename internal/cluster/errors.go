package cluster

import "fmt"

// ExchangeErrorKind classifies halo-exchange integrity violations.
type ExchangeErrorKind int

const (
	// ErrMissing: a receiver imports a shell slice from a neighbour whose
	// export lists send it none.
	ErrMissing ExchangeErrorKind = iota
	// ErrSizeMismatch: sender and receiver disagree about how many values a
	// shell slice holds — the payload would be short or long.
	ErrSizeMismatch
	// ErrUnexpected: a sender exports a shell slice to a rank that does not
	// import it from that sender.
	ErrUnexpected
)

func (k ExchangeErrorKind) String() string {
	switch k {
	case ErrMissing:
		return "missing"
	case ErrSizeMismatch:
		return "size mismatch"
	case ErrUnexpected:
		return "unexpected"
	}
	return "unknown"
}

// HangError reports a no-progress watchdog trip: the run's maximum virtual
// clock advanced past the configured deadline without an exchange
// completing (see Backend.SetWatchdog). The exchange layer panics with a
// typed *HangError so a supervisor can catch it, restore from the newest
// valid snapshot and retry with a relaxed deadline.
type HangError struct {
	// Exchange is the fault-sequence number of the exchange that detected
	// the stall.
	Exchange uint64
	// Last is the virtual time of the last completed exchange, Clock the
	// maximum virtual clock at detection, Deadline the configured limit.
	Last, Clock, Deadline float64
}

func (e *HangError) Error() string {
	return fmt.Sprintf("cluster: watchdog: no exchange completed for %.3gs of virtual time (last progress %.6g, clock %.6g, deadline %.3g) at exchange %d",
		e.Clock-e.Last, e.Last, e.Clock, e.Deadline, e.Exchange)
}

// ClosedError reports a use of a backend after Close: its dats are gone — back
// with the lender they were borrowed from, possibly another backend's by now —
// so the operation panics with a typed *ClosedError naming the backend,
// before it indexes anything. Always the caller's bug.
type ClosedError struct {
	// Backend and NParts name the backend (Backend.Name, the rank count); Op
	// is the method that was called.
	Backend string
	NParts  int
	Op      string
}

func (e *ClosedError) Error() string {
	return fmt.Sprintf("cluster: %s on closed backend %s x%d", e.Op, e.Backend, e.NParts)
}

// HaloDepthError reports a loop iteration whose map row reaches an element
// the rank's halo does not hold: the backend was built with too shallow a
// Depth for the iteration range it was asked to execute. The element loop
// panics with a typed *HaloDepthError rather than index the dat with the
// layout's "absent" marker and corrupt memory.
type HaloDepthError struct {
	Rank int
	// Loop is the kernel's name, Iter the rank-local iteration.
	Loop string
	Iter int
	// Map and Slot name the map entry that points beyond the halo.
	Map  string
	Slot int
}

func (e *HaloDepthError) Error() string {
	return fmt.Sprintf("cluster: rank %d loop %q iteration %d dereferences element beyond halo depth (map %s slot %d)",
		e.Rank, e.Loop, e.Iter, e.Map, e.Slot)
}

// SnapshotErrorKind classifies why a snapshot cannot be restored.
type SnapshotErrorKind int

const (
	// ErrSnapshotConfig: the snapshot was taken under a different
	// configuration (mesh, partition, machine, policy): its fingerprint does
	// not match the restoring one.
	ErrSnapshotConfig SnapshotErrorKind = iota
	// ErrSnapshotShape: a section does not have the shape the configuration
	// builds — a count, a slab length, the continuation blob's account of
	// which dats the snapshot holds.
	ErrSnapshotShape
	// ErrSnapshotConstants: a dat the snapshot omits, because nothing had
	// written it, holds different values in the restoring program.
	ErrSnapshotConstants
)

// SnapshotError reports a snapshot that decoded cleanly — the container and
// its checksum are intact — but cannot be resumed under the restoring
// configuration. RestoreState returns it (never panics on snapshot content)
// and leaves no backend behind.
type SnapshotError struct {
	Kind SnapshotErrorKind
	Msg  string
}

func (e *SnapshotError) Error() string { return "cluster: checkpoint " + e.Msg }

func snapshotErrorf(kind SnapshotErrorKind, format string, args ...any) error {
	return &SnapshotError{Kind: kind, Msg: fmt.Sprintf(format, args...)}
}

// ExchangeError describes one halo-exchange integrity violation: which
// receiving rank's import layout it concerns, which sender's export layout
// disagrees with it, which dat's shell slice, and the expected versus
// scheduled value counts where applicable. Sender and receiver layouts agree
// by construction, so a violation is a runtime bug; schedule construction —
// the only place messages are formed — panics with a typed *ExchangeError,
// before any value moves, that callers and tests can inspect field by field
// instead of substring-matching a message.
type ExchangeError struct {
	Kind ExchangeErrorKind
	// Rank is the receiving rank; From is the sending rank.
	Rank int
	From int32
	// Dat names the dat whose shell slice is inconsistent.
	Dat string
	// Want is the value count the receiver's import range holds, Got the
	// count the sender's export list packs (ErrSizeMismatch; zero otherwise).
	Want, Got int
}

// Error renders the violation; the kind keywords match the historical
// string panics so existing log scrapes keep working.
func (e *ExchangeError) Error() string {
	switch e.Kind {
	case ErrMissing:
		return fmt.Sprintf("cluster: rank %d: missing message for dat %s from rank %d", e.Rank, e.Dat, e.From)
	case ErrSizeMismatch:
		return fmt.Sprintf("cluster: rank %d: message for dat %s from rank %d has %d values, want %d",
			e.Rank, e.Dat, e.From, e.Got, e.Want)
	case ErrUnexpected:
		return fmt.Sprintf("cluster: rank %d: unexpected message for dat %s from rank %d",
			e.Rank, e.Dat, e.From)
	}
	return fmt.Sprintf("cluster: rank %d: exchange error from rank %d", e.Rank, e.From)
}
