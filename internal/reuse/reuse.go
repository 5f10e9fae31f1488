// Package reuse holds the slice helpers of the pooled scratch in halo,
// partition and cluster's exchange-schedule builder: a scratch slice is given
// the length a call needs in place, and reallocated — at exactly that length —
// only when its capacity is short.
package reuse

// Resize returns s with length n, keeping its elements up to its capacity
// (a slice of slices keeps its inner slices for reuse). It reallocates, at
// exactly n, only when n exceeds the capacity.
func Resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	t := make([]T, n)
	copy(t, s[:cap(s)])
	return t
}

// Filled returns s with length n and every element v. It reallocates, at
// exactly n, only when n exceeds the capacity.
func Filled[T any](s []T, n int, v T) []T {
	if n > cap(s) {
		s = make([]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}
