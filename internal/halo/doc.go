// Package halo constructs the distributed-memory halo data structures of
// the paper's Section 3: per-rank local views of an OP2 program with owned
// elements, import/export execute halos (redundantly computed foreign
// elements) and import/export non-execute halos (read-only foreign
// elements), at halo depths 1..r (Figures 4-7), together with the local
// renumbering of maps and the neighbour-wise export lists from which both
// per-loop messages and the CA back-end's grouped messages (Figure 8) are
// packed.
//
// # Shells
//
// Ownership of the primary set comes from a partitioner; every other set
// inherits ownership through a map (an element is owned by the owner of its
// first map target). For one rank, halo shells grow outward from the owned
// region through the union adjacency induced by all maps:
//
//   - execute shell d (eeh/ieh of depth d): foreign elements, not yet
//     included, with a forward map entry into the depth-(d-1) closure.
//     Executing them redundantly produces correct values on closure
//     elements.
//   - non-execute shell d (enh/inh): foreign elements, not yet included,
//     that are map targets of execute-shell-d elements (and of owned
//     elements for d = 1). They are only ever read.
//
// Executing owned plus execute shells 1..h makes increment-accumulated data
// valid on all elements of shells <= h-1; that is the invariant the CA
// back-end's inspector (package ca) relies on.
//
// # Local numbering
//
// Per set, local indices are ordered [owned | exec shells 1..r | non-exec
// shells 1..r]. Owned elements are sorted by decreasing interior level
// (union-graph distance from the partition boundary) so that the iterations
// safe to execute while halo exchanges are in flight — the paper's "core" —
// form a prefix; CorePrefix(l) gives the prefix executable before the wait
// by the l-th loop of a chain. Shell elements are grouped by owning rank so
// each import is a contiguous copy.
//
// # Build
//
// Build is a sequence of linear passes over scratch arrays indexed by global
// element id: ownership buckets and boundary marks for the whole program,
// then per rank interior levels (a capped BFS), shells, numbering (counting
// sorts by level and by owner; only a shell's globals are comparison-sorted,
// once), the canonical ExecOrder (a merge of runs already ascending) and the
// localized maps, then export lists for all ranks. A rank's passes visit only its local elements and reset what they
// marked through its L2G, so the call costs O(program + sum of local sizes)
// whatever the rank count. The global-to-local inverse of L2G exists only
// here, as scratch: a Layout keeps no hash map and nothing per global
// element. The scratch comes from a pool, one builder per call, so a call
// reallocates an array only when it needs more than the builder ever held,
// and concurrent calls share nothing; every array is re-initialised at the
// start of a call, the builder forgets the program when the call returns,
// and two garbage collections empty the pool.
package halo
