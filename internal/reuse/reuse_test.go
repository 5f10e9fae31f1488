package reuse

import (
	"slices"
	"testing"
)

func TestResize(t *testing.T) {
	s := make([]int, 4, 6)
	copy(s, []int{1, 2, 3, 4})
	s = s[:1]
	if got := Resize(s, 3); !slices.Equal(got, []int{1, 2, 3}) || &got[0] != &s[0] {
		t.Errorf("shrunk then resized within capacity: %v, want [1 2 3] in place", got)
	}
	got := Resize(s, 8)
	if !slices.Equal(got, []int{1, 2, 3, 4, 0, 0, 0, 0}) || cap(got) != 8 {
		t.Errorf("grown: %v (cap %d), want the elements kept and capacity 8", got, cap(got))
	}
	if got := Resize([]int(nil), 0); got != nil {
		t.Errorf("nil at 0: %v, want nil", got)
	}
}

func TestFilled(t *testing.T) {
	s := []int32{5, 6, 7}
	if got := Filled(s, 2, -1); !slices.Equal(got, []int32{-1, -1}) || &got[0] != &s[0] {
		t.Errorf("within capacity: %v, want [-1 -1] in place", got)
	}
	if got := Filled(s, 5, 9); !slices.Equal(got, []int32{9, 9, 9, 9, 9}) || cap(got) != 5 {
		t.Errorf("grown: %v (cap %d), want five 9s at capacity 5", got, cap(got))
	}
}
