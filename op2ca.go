// Package op2ca reproduces "Communication-Avoiding Optimizations for
// Large-Scale Unstructured-Mesh Applications with OP2" (Ekanayake, Reguly,
// Luporini, Mudalige; ICPP 2023) as a Go library: an OP2-style
// unstructured-mesh DSL, a distributed-memory back-end with per-loop halo
// exchanges (Algorithm 1), a communication-avoiding loop-chain back-end
// with multi-layered halos and grouped messages (Algorithms 2-3), the
// paper's analytic performance model (Equations (1)-(4)), machine models
// of the ARCHER2 and Cirrus systems, the MG-CFD mini-app and a proxy of
// Rolls-Royce's Hydra with the six published loop-chains, and a benchmark
// harness regenerating every table and figure of the evaluation.
//
// This facade re-exports the user-facing API; see DESIGN.md for the system
// inventory and EXPERIMENTS.md for paper-vs-measured results.
//
// A minimal program:
//
//	p := op2ca.NewProgram()
//	nodes := p.DeclSet(nnode, "nodes")
//	edges := p.DeclSet(nedge, "edges")
//	e2n := p.DeclMap(edges, nodes, 2, en, "e2n")
//	res := p.DeclDat(nodes, 2, nil, "res")
//	...
//	// Declare each loop once, with the data, and issue it every iteration.
//	upd := op2ca.NewLoop(update, edges, op2ca.ArgDat(res, 0, e2n, op2ca.Inc), ...)
//	flux := op2ca.NewLoop(...)
//	b, _ := op2ca.NewCluster(op2ca.ClusterConfig{Prog: p, Primary: nodes,
//	        Assign: op2ca.KWay(adj, 8), NParts: 8, Depth: 2, CA: true})
//	for it := 0; it < iters; it++ {
//		b.ChainBegin("chain")
//		b.ParLoop(upd)
//		b.ParLoop(flux)
//		b.ChainEnd()
//	}
//
// A declared loop holds no buffer a backend writes, so backends running at
// once may share it: a global reduction (ArgGbl with Inc, Min or Max) takes
// its buffer, and so its loop, per call.
package op2ca

import (
	"op2ca/internal/chaincfg"
	"op2ca/internal/cluster"
	"op2ca/internal/core"
	"op2ca/internal/machine"
	"op2ca/internal/mesh"
	"op2ca/internal/model"
	"op2ca/internal/partition"
)

// Core DSL types (op_set, op_map, op_dat, op_par_loop).
type (
	Program    = core.Program
	Set        = core.Set
	Map        = core.Map
	Dat        = core.Dat
	Arg        = core.Arg
	Kernel     = core.Kernel
	KernelFunc = core.KernelFunc
	Loop       = core.Loop
	Backend    = core.Backend
	AccessMode = core.AccessMode
)

// Access modes (OP_READ, OP_WRITE, OP_RW, OP_INC, OP_MIN, OP_MAX).
const (
	Read      = core.Read
	Write     = core.Write
	ReadWrite = core.ReadWrite
	Inc       = core.Inc
	Min       = core.Min
	Max       = core.Max
)

// NewProgram starts an empty program (the op_decl_* context).
func NewProgram() *Program { return core.NewProgram() }

// NewLoop builds a validated op_par_loop descriptor.
func NewLoop(k *Kernel, set *Set, args ...Arg) Loop { return core.NewLoop(k, set, args...) }

// ArgDat is op_arg_dat with an indirection map.
func ArgDat(d *Dat, idx int, m *Map, mode AccessMode) Arg { return core.ArgDat(d, idx, m, mode) }

// ArgDatVec is op_arg_dat over every map slot at once (OP2's vector
// arguments): the kernel receives m.Arity consecutive views.
func ArgDatVec(d *Dat, m *Map, mode AccessMode) Arg { return core.ArgDatVec(d, m, mode) }

// ArgDatDirect is op_arg_dat with the identity map (OP_ID).
func ArgDatDirect(d *Dat, mode AccessMode) Arg { return core.ArgDatDirect(d, mode) }

// ArgGbl is op_arg_gbl (loop-constant data or a global reduction).
func ArgGbl(buf []float64, mode AccessMode) Arg { return core.ArgGbl(buf, mode) }

// NewSeq returns the sequential reference backend.
func NewSeq() *core.Seq { return core.NewSeq() }

// Distributed back-end (standard OP2 and communication-avoiding).
type (
	ClusterConfig  = cluster.Config
	ClusterBackend = cluster.Backend
	Stats          = cluster.Stats
)

// NewCluster builds the distributed back-end over a partitioned program.
func NewCluster(cfg ClusterConfig) (*ClusterBackend, error) { return cluster.New(cfg) }

// Partitioners.
type Assignment = partition.Assignment

// KWay is a graph-growing k-way partitioner (the ParMETIS k-way stand-in).
func KWay(adj [][]int32, nparts int) Assignment { return partition.KWay(adj, nparts) }

// RIB is recursive inertial bisection (Hydra's default partitioner).
func RIB(coords []float64, dim, nparts int) Assignment { return partition.RIB(coords, dim, nparts) }

// RCB is recursive coordinate bisection.
func RCB(coords []float64, dim, nparts int) Assignment { return partition.RCB(coords, dim, nparts) }

// BlockPartition assigns contiguous index ranges.
func BlockPartition(n, nparts int) Assignment { return partition.Block(n, nparts) }

// Machine models (the paper's Table 1).
type Machine = machine.Machine

// ARCHER2 models the HPE Cray EX CPU system (128 ranks/node).
func ARCHER2() *Machine { return machine.ARCHER2() }

// Cirrus models the SGI/HPE 8600 V100 GPU cluster (4 ranks/node).
func Cirrus() *Machine { return machine.Cirrus() }

// Laptop models a small shared-memory test machine.
func Laptop() *Machine { return machine.Laptop() }

// Synthetic meshes.
type (
	FV3D   = mesh.FV3D
	Quad2D = mesh.Quad2D
)

// Rotor generates a rotor-like periodic annular-sector FV mesh.
func Rotor(ni, nj, nk int) *FV3D { return mesh.Rotor(ni, nj, nk) }

// RotorForNodes generates a rotor mesh of approximately n nodes.
func RotorForNodes(n int) *FV3D { return mesh.RotorForNodes(n) }

// NewQuad2D generates the Figure 1 style quadrilateral mesh.
func NewQuad2D(nx, ny int) *Quad2D { return mesh.NewQuad2D(nx, ny) }

// Box generates a rectilinear FV mesh (all faces solid boundaries).
func Box(ni, nj, nk int) *FV3D { return mesh.Box(ni, nj, nk) }

// LoadMesh reads a mesh saved in the op2ca binary format.
func LoadMesh(path string) (*FV3D, error) { return mesh.LoadFile(path) }

// Chain configuration (the paper's Section 3.4 file).
type ChainConfig = chaincfg.Config

// ParseChainConfig parses a CA configuration file from a string.
func ParseChainConfig(s string) (*ChainConfig, error) { return chaincfg.ParseString(s) }

// Analytic model (Equations (1)-(4)).
type (
	ModelNet         = model.Net
	ModelLoopParams  = model.LoopParams
	ModelChainParams = model.ChainParams
)

// TOp2Chain is Equation (2); TCAChain is Equation (3).
func TOp2Chain(loops []ModelLoopParams, n ModelNet) float64 { return model.TOp2Chain(loops, n) }

// TCAChain models the communication-avoiding chain runtime.
func TCAChain(c ModelChainParams, n ModelNet) float64 { return model.TCAChain(c, n) }
