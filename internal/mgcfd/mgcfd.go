// Package mgcfd reimplements the MG-CFD mini-app (Owenson et al., CCPE
// 2020) on the op2ca DSL: a 3-D unstructured multi-grid finite-volume
// solver for the Euler equations of inviscid compressible flow, node-
// centred, with edge-based flux accumulation — the first evaluation
// application of the paper (Section 4.1).
//
// The package also provides the paper's synthetic loop-chain (Section
// 4.1.1): repeated (update, edge_flux) pairs with the
// increment-then-indirect-read access pattern, extendable via nchains,
// where edge_flux replicates the arithmetic of the most expensive MG-CFD
// kernel. The chain requires at most two halo layers (r = 2) at any chain
// length, matching the paper's benchmark setting.
package mgcfd

import (
	"fmt"
	"math"

	"op2ca/internal/core"
	"op2ca/internal/mesh"
)

// Gas constants: gamma = 1.4, freestream at Mach 0.4 like MG-CFD's deck.
const (
	gamma = 1.4
	gm1   = gamma - 1
	// CFL is deliberately small: the synthetic rotor meshes are not
	// smoothed, and stability is all the benchmark needs.
	cfl = 0.05
)

// Level is one multigrid level: its sets, maps and data.
type Level struct {
	Nodes  *core.Set
	Edges  *core.Set
	Bedges *core.Set
	E2N    *core.Map
	B2N    *core.Map
	// F2C maps this level's nodes to the next coarser level's nodes;
	// nil on the coarsest level.
	F2C *core.Map

	Vars    *core.Dat // [rho, mx, my, mz, E] per node
	Fluxes  *core.Dat // accumulated residual, dim 5
	Volumes *core.Dat
	StepFac *core.Dat
	EdgeW   *core.Dat // dual-face area vectors, dim 3
	BedgeW  *core.Dat
	BedgeG  *core.Dat // boundary group as float (0..5)
	// VarsSave holds the restricted state before the coarse sweep, so
	// prolongation transfers the coarse correction; RCount holds the
	// number of fine contributors per coarse node (restriction weights).
	// Both are nil on the finest level.
	VarsSave *core.Dat
	RCount   *core.Dat

	loops levelLoops
}

// levelLoops are the loops one level issues, declared once by New and
// issued unchanged every cycle.
type levelLoops struct {
	init  core.Loop
	sweep [4]core.Loop
	// restrict zeroes the next coarser level's state, sums this level's onto
	// it and finishes the average; prolong pushes the coarse correction back.
	// Both are empty on the coarsest level.
	restrict []core.Loop
	prolong  core.Loop
}

// App is the MG-CFD application state: a program over a multigrid
// hierarchy.
type App struct {
	Prog   *core.Program
	Levels []*Level
	// Primary is the finest level's node set (the partitioned set).
	Primary *core.Set

	syn *Synthetic
}

// New declares the MG-CFD program over the hierarchy.
func New(h *mesh.Hierarchy) *App {
	a := &App{Prog: core.NewProgram()}
	for li, m := range h.Levels {
		lv := &Level{}
		lv.Nodes = a.Prog.DeclSet(m.NNodes, fmt.Sprintf("nodes_l%d", li))
		lv.Edges = a.Prog.DeclSet(m.NEdges, fmt.Sprintf("edges_l%d", li))
		lv.Bedges = a.Prog.DeclSet(m.NBedges, fmt.Sprintf("bedges_l%d", li))
		lv.E2N = a.Prog.DeclMap(lv.Edges, lv.Nodes, 2, m.EdgeNodes, fmt.Sprintf("e2n_l%d", li))
		lv.B2N = a.Prog.DeclMap(lv.Bedges, lv.Nodes, 1, m.BedgeNodes, fmt.Sprintf("b2n_l%d", li))
		lv.Vars = a.Prog.DeclDat(lv.Nodes, 5, nil, fmt.Sprintf("vars_l%d", li))
		lv.Fluxes = a.Prog.DeclDat(lv.Nodes, 5, nil, fmt.Sprintf("fluxes_l%d", li))
		lv.Volumes = a.Prog.DeclDat(lv.Nodes, 1, m.Volumes, fmt.Sprintf("volumes_l%d", li))
		lv.StepFac = a.Prog.DeclDat(lv.Nodes, 1, nil, fmt.Sprintf("stepfac_l%d", li))
		lv.EdgeW = a.Prog.DeclDat(lv.Edges, 3, m.EdgeWeights, fmt.Sprintf("edgew_l%d", li))
		lv.BedgeW = a.Prog.DeclDat(lv.Bedges, 3, m.BedgeWeights, fmt.Sprintf("bedgew_l%d", li))
		groups := make([]float64, m.NBedges)
		for i, g := range m.BedgeGroups {
			groups[i] = float64(g)
		}
		lv.BedgeG = a.Prog.DeclDat(lv.Bedges, 1, groups, fmt.Sprintf("bedgeg_l%d", li))
		a.Levels = append(a.Levels, lv)
	}
	for li, f2c := range h.FineToCoarse {
		fine, coarse := a.Levels[li], a.Levels[li+1]
		fine.F2C = a.Prog.DeclMap(fine.Nodes, coarse.Nodes, 1, f2c, fmt.Sprintf("f2c_l%d", li))
		coarse.VarsSave = a.Prog.DeclDat(coarse.Nodes, 5, nil, fmt.Sprintf("varssave_l%d", li+1))
		counts := make([]float64, coarse.Nodes.Size)
		for _, c := range f2c {
			counts[c]++
		}
		coarse.RCount = a.Prog.DeclDat(coarse.Nodes, 1, counts, fmt.Sprintf("rcount_l%d", li+1))
	}
	for li, lv := range a.Levels {
		lv.loops.init = core.NewLoop(kInitVars, lv.Nodes,
			core.ArgDatDirect(lv.Vars, core.Write),
			core.ArgDatDirect(lv.Fluxes, core.Write))
		lv.loops.sweep = [4]core.Loop{
			core.NewLoop(kStepFactor, lv.Nodes,
				core.ArgDatDirect(lv.Vars, core.Read),
				core.ArgDatDirect(lv.Volumes, core.Read),
				core.ArgDatDirect(lv.StepFac, core.Write)),
			core.NewLoop(kFluxEdge, lv.Edges,
				core.ArgDat(lv.Fluxes, 0, lv.E2N, core.Inc),
				core.ArgDat(lv.Fluxes, 1, lv.E2N, core.Inc),
				core.ArgDat(lv.Vars, 0, lv.E2N, core.Read),
				core.ArgDat(lv.Vars, 1, lv.E2N, core.Read),
				core.ArgDatDirect(lv.EdgeW, core.Read)),
			core.NewLoop(kBndFlux, lv.Bedges,
				core.ArgDat(lv.Fluxes, 0, lv.B2N, core.Inc),
				core.ArgDat(lv.Vars, 0, lv.B2N, core.Read),
				core.ArgDatDirect(lv.BedgeW, core.Read),
				core.ArgDatDirect(lv.BedgeG, core.Read)),
			core.NewLoop(kTimeStep, lv.Nodes,
				core.ArgDatDirect(lv.Vars, core.ReadWrite),
				core.ArgDatDirect(lv.Fluxes, core.ReadWrite),
				core.ArgDatDirect(lv.StepFac, core.Read),
				core.ArgDatDirect(lv.Volumes, core.Read)),
		}
		if lv.F2C == nil {
			continue
		}
		coarse := a.Levels[li+1]
		lv.loops.restrict = []core.Loop{
			core.NewLoop(kZero5, coarse.Nodes,
				core.ArgDatDirect(coarse.Vars, core.Write)),
			core.NewLoop(kRestrictSum, lv.Nodes,
				core.ArgDat(coarse.Vars, 0, lv.F2C, core.Inc),
				core.ArgDatDirect(lv.Vars, core.Read)),
			core.NewLoop(kRestrictFinish, coarse.Nodes,
				core.ArgDatDirect(coarse.Vars, core.ReadWrite),
				core.ArgDatDirect(coarse.VarsSave, core.Write),
				core.ArgDatDirect(coarse.RCount, core.Read)),
		}
		lv.loops.prolong = core.NewLoop(kProlong, lv.Nodes,
			core.ArgDatDirect(lv.Vars, core.Inc),
			core.ArgDat(coarse.Vars, 0, lv.F2C, core.Read),
			core.ArgDat(coarse.VarsSave, 0, lv.F2C, core.Read))
	}
	a.Primary = a.Levels[0].Nodes
	return a
}

// freestream returns the freestream conserved variables (Mach 0.4 along x).
func freestream() [5]float64 {
	const (
		rho  = 1.4
		mach = 0.4
		p    = 1.0
	)
	c := math.Sqrt(gamma * p / rho)
	u := mach * c
	return [5]float64{rho, rho * u, 0, 0, p/gm1 + 0.5*rho*u*u}
}

// Kernels. Cost declarations (Flops, MemBytes) feed the performance model;
// they follow the arithmetic below.
var (
	kInitVars = &core.Kernel{Name: "initialize_variables", Flops: 5, MemBytes: 80,
		Fn: func(a [][]float64) {
			ff := freestream()
			copy(a[0], ff[:])
			for i := range a[1] {
				a[1][i] = 0
			}
		}}

	kStepFactor = &core.Kernel{Name: "compute_step_factor", Flops: 25, MemBytes: 96,
		Fn: func(a [][]float64) {
			v, vol, sf := a[0], a[1], a[2]
			rho := v[0]
			inv := 1 / rho
			u, vy, w := v[1]*inv, v[2]*inv, v[3]*inv
			speed2 := u*u + vy*vy + w*w
			p := gm1 * (v[4] - 0.5*rho*speed2)
			if p < 1e-10 {
				p = 1e-10
			}
			c := math.Sqrt(gamma * p * inv)
			sf[0] = cfl * math.Cbrt(vol[0]) / (math.Sqrt(speed2) + c)
		}}

	// kFluxEdge is compute_flux_edge: central flux with scalar
	// dissipation across the dual face between two nodes. This is the
	// most time-consuming loop of MG-CFD.
	kFluxEdge = &core.Kernel{Name: "compute_flux_edge", Flops: 110, MemBytes: 280,
		Fn: func(a [][]float64) {
			fluxA, fluxB, vA, vB, w := a[0], a[1], a[2], a[3], a[4]
			var fA, fB [5]float64
			pA := eulerFlux(vA, w, &fA)
			pB := eulerFlux(vB, w, &fB)
			area := math.Sqrt(w[0]*w[0] + w[1]*w[1] + w[2]*w[2])
			// Scalar dissipation scaled by face area and acoustic speed.
			cA := math.Sqrt(gamma * pA / vA[0])
			cB := math.Sqrt(gamma * pB / vB[0])
			eps := 0.5 * area * (cA + cB) * 0.5
			for i := 0; i < 5; i++ {
				f := 0.5*(fA[i]+fB[i]) - eps*(vB[i]-vA[i])
				fluxA[i] -= f
				fluxB[i] += f
			}
		}}

	kBndFlux = &core.Kernel{Name: "compute_bnd_flux", Flops: 40, MemBytes: 160,
		Fn: func(a [][]float64) {
			flux, v, w, grp := a[0], a[1], a[2], a[3]
			rho := v[0]
			inv := 1 / rho
			speed2 := (v[1]*v[1] + v[2]*v[2] + v[3]*v[3]) * inv * inv
			p := gm1 * (v[4] - 0.5*rho*speed2)
			switch int(grp[0]) {
			case mesh.BndHub, mesh.BndCasing, mesh.BndSideLo, mesh.BndSideHi:
				// Solid wall: pressure force only.
				flux[1] -= p * w[0]
				flux[2] -= p * w[1]
				flux[3] -= p * w[2]
			default:
				// Far field: flux of the freestream state.
				ff := freestream()
				var f [5]float64
				eulerFlux(ff[:], w, &f)
				for i := 0; i < 5; i++ {
					flux[i] -= f[i]
				}
			}
		}}

	kTimeStep = &core.Kernel{Name: "time_step", Flops: 25, MemBytes: 200,
		Fn: func(a [][]float64) {
			v, flux, sf, vol := a[0], a[1], a[2], a[3]
			scale := sf[0] / vol[0]
			for i := 0; i < 5; i++ {
				v[i] += scale * flux[i]
				flux[i] = 0
			}
		}}

	// kRestrictSum accumulates fine state onto the coarse grid (the "up"
	// kernel); kRestrictFinish divides by the contributor count and saves
	// the restricted state; kProlong pushes the coarse correction back
	// down ("down").
	kRestrictSum = &core.Kernel{Name: "restrict_sum", Flops: 5, MemBytes: 160,
		Fn: func(a [][]float64) {
			coarse, fine := a[0], a[1]
			for i := 0; i < 5; i++ {
				coarse[i] += fine[i]
			}
		}}
	kRestrictFinish = &core.Kernel{Name: "restrict_finish", Flops: 10, MemBytes: 200,
		Fn: func(a [][]float64) {
			vars, save, count := a[0], a[1], a[2]
			inv := 1 / count[0]
			for i := 0; i < 5; i++ {
				vars[i] *= inv
				save[i] = vars[i]
			}
		}}
	kProlong = &core.Kernel{Name: "prolong", Flops: 15, MemBytes: 240,
		Fn: func(a [][]float64) {
			fine, coarse, save := a[0], a[1], a[2]
			for i := 0; i < 5; i++ {
				fine[i] += 0.5 * (coarse[i] - save[i])
			}
		}}
	kZero5 = &core.Kernel{Name: "zero5", Flops: 0, MemBytes: 40,
		Fn: func(a [][]float64) {
			for i := range a[0] {
				a[0][i] = 0
			}
		}}
)

// eulerFlux writes the inviscid flux of state v through area vector w into
// f and returns the pressure.
func eulerFlux(v []float64, w []float64, f *[5]float64) float64 {
	rho := v[0]
	inv := 1 / rho
	u, vy, vz := v[1]*inv, v[2]*inv, v[3]*inv
	speed2 := u*u + vy*vy + vz*vz
	p := gm1 * (v[4] - 0.5*rho*speed2)
	if p < 1e-10 {
		p = 1e-10
	}
	vn := u*w[0] + vy*w[1] + vz*w[2] // volume flux through the face
	f[0] = rho * vn
	f[1] = v[1]*vn + p*w[0]
	f[2] = v[2]*vn + p*w[1]
	f[3] = v[3]*vn + p*w[2]
	f[4] = (v[4] + p) * vn
	return p
}

// Init sets every level to freestream with zeroed residuals.
func (a *App) Init(b core.Backend) {
	for _, lv := range a.Levels {
		b.ParLoop(lv.loops.init)
	}
}

// Sweep runs one explicit smoothing sweep on one level: step factor,
// edge fluxes, boundary fluxes, explicit update.
func (a *App) Sweep(b core.Backend, lv *Level) {
	for _, l := range lv.loops.sweep {
		b.ParLoop(l)
	}
}

// Cycle runs one multigrid cycle: sweep each level fine to coarse,
// restricting the state (volume-average over contributing fine nodes) and
// saving it, then prolong the coarse corrections back to the finest level.
func (a *App) Cycle(b core.Backend) {
	for _, lv := range a.Levels {
		a.Sweep(b, lv)
		for _, l := range lv.loops.restrict {
			b.ParLoop(l)
		}
	}
	for li := len(a.Levels) - 2; li >= 0; li-- {
		b.ParLoop(a.Levels[li].loops.prolong)
	}
}

// Residual computes the L1 norm of density on the finest level via a global
// reduction (a convergence monitor, and a test that reductions work
// end-to-end through the solver). The backend writes the reduction's
// buffer, so the loop is built per call rather than declared with the rest:
// attempts sharing one App may call Residual at the same time.
func (a *App) Residual(b core.Backend) float64 {
	sum := []float64{0}
	k := &core.Kernel{Name: "residual", Flops: 2, MemBytes: 16, Fn: func(args [][]float64) {
		args[1][0] += math.Abs(args[0][0])
	}}
	b.ParLoop(core.NewLoop(k, a.Levels[0].Nodes,
		core.ArgDatDirect(a.Levels[0].Vars, core.Read),
		core.ArgGbl(sum, core.Inc)))
	return sum[0]
}
