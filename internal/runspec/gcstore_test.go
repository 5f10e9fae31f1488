package runspec

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"op2ca/internal/cluster"
)

// TestGCStoreKeyBound: the store tracks at most gcStoreKeys keys; a new one
// displaces the least recently used, with what it held.
func TestGCStoreKeyBound(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := new(GCStore[LayoutKey, cluster.Layouts])
	key := func(ranks int) LayoutKey {
		return LayoutKey{AssignmentKey: AssignmentKey{MeshNodes: 800, Partitioner: "rib", Ranks: ranks}, App: "hydra"}
	}
	lay := new(cluster.Layouts)
	for r := 1; r <= gcStoreKeys; r++ {
		s.Store(key(r), lay)
	}
	if s.Load(key(1)) != lay { // 1 is now the most recent, 2 the least
		t.Fatal("Load did not return what was stored")
	}
	s.Store(key(gcStoreKeys+1), lay)
	if len(s.pools) != gcStoreKeys || s.pools[key(2)] != nil || s.pools[key(1)] == nil {
		t.Errorf("after one key too many: %d keys, key 2 kept %v, key 1 kept %v; want the least recently used gone",
			len(s.pools), s.pools[key(2)] != nil, s.pools[key(1)] != nil)
	}
	if s.Load(key(2)) != nil {
		t.Error("a displaced key still answers")
	}
}

// TestGCStoreLetsIdleValuesGo: a value held by nobody but the store is gone
// two collections after its last use, one held elsewhere is still a hit, and
// the counters count every Load.
func TestGCStoreLetsIdleValuesGo(t *testing.T) {
	s := new(GCStore[InstanceKey, Instance])
	held, idle := new(Instance), new(Instance)
	s.Store(InstanceKey{App: "held"}, held)
	s.Store(InstanceKey{App: "idle"}, idle)
	idle = nil
	runtime.GC()
	runtime.GC()
	if s.Load(InstanceKey{App: "held"}) != held {
		t.Error("a value its user still holds is not a hit")
	}
	if s.Load(InstanceKey{App: "idle"}) != nil {
		t.Error("a value nobody used for two collections is still a hit")
	}
	if keys, values := s.Held(); keys != 2 || values != 1 {
		t.Errorf("the store tracks %d keys and holds %d values, want 2 and 1", keys, values)
	}
	if hits, misses := s.Stats(); hits != 1 || misses != 1 {
		t.Errorf("%d hits and %d misses, want one each", hits, misses)
	}
	s.Reset()
	if keys, _ := s.Held(); keys != 0 {
		t.Errorf("a reset store tracks %d keys", keys)
	}
	runtime.KeepAlive(held)
}

// TestGCStoreConcurrent (run under -race): goroutines storing and loading a
// few keys at once only ever get nil or what was stored under the key they
// asked for, and every Load is counted.
func TestGCStoreConcurrent(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := new(GCStore[InstanceKey, Instance])
	values := make([]*Instance, 4)
	for i := range values {
		values[i] = &Instance{}
	}
	const goroutines, loads = 8, 200
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range loads {
				k := (g + i) % len(values)
				key := InstanceKey{Levels: k}
				if v := s.Load(key); v != nil && v != values[k] {
					t.Errorf("key %d answered another key's value", k)
					return
				} else if v == nil {
					s.Store(key, values[k])
				}
			}
		}()
	}
	wg.Wait()
	if hits, misses := s.Stats(); hits+misses != goroutines*loads || misses < len(values) {
		t.Errorf("%d hits and %d misses over %d loads of %d keys", hits, misses, goroutines*loads, len(values))
	}
}
