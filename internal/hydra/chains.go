package hydra

import (
	"math"

	"op2ca/internal/core"
)

// Kernel cost declarations are calibrated so the chains' shares of total
// runtime follow the paper's Section 4.2: vflux ~18%, gradl ~8%, iflux ~5%,
// jacob ~2%, the rest in the Runge-Kutta and turbulence loops.
var (
	// --- weight chain (setup phase) ---
	kSumbwts = &core.Kernel{Name: "sumbwts", Flops: 30, MemBytes: 150,
		Fn: func(a [][]float64) {
			qo, bw := a[0], a[1]
			for c := 0; c < 6; c++ {
				qo[c] += 0.1 * math.Abs(bw[c%3])
			}
		}}
	kPeriodSym6 = &core.Kernel{Name: "periodsym", Flops: 24, MemBytes: 200,
		Fn: func(a [][]float64) {
			qa, qb := a[0], a[1]
			for c := 0; c < 6; c++ {
				s := 0.5 * (qa[c] + qb[c])
				qa[c], qb[c] = s, s
			}
		}}
	kCentreline = &core.Kernel{Name: "centreline", Flops: 12, MemBytes: 100,
		Fn: func(a [][]float64) {
			qo, cw := a[0], a[1]
			for c := 0; c < 6; c++ {
				qo[c] = cw[0] * (0.1*float64(c) + 1)
			}
		}}
	kEdgeLength = &core.Kernel{Name: "edgelength", Flops: 45, MemBytes: 250,
		Fn: func(a [][]float64) {
			qo1, qo2, ew := a[0], a[1], a[2]
			l := math.Sqrt(ew[0]*ew[0] + ew[1]*ew[1] + ew[2]*ew[2])
			for c := 0; c < 6; c++ {
				qo1[c] += 0.05 * l
				qo2[c] += 0.05 * l
			}
		}}

	// --- period chain ---
	kNegflag = &core.Kernel{Name: "negflag", Flops: 6, MemBytes: 60,
		Fn: func(a [][]float64) {
			va, vb := a[0], a[1]
			v := math.Min(va[0], vb[0])
			va[0], vb[0] = v, v
		}}
	// kLimxp updates each endpoint from its own data only (a limiter is
	// node-local); applied once per incident edge, deterministically.
	kLimxp = &core.Kernel{Name: "limxp", Flops: 150, MemBytes: 400,
		Fn: func(a [][]float64) {
			qo1, qo2, v1, v2 := a[0], a[1], a[2], a[3]
			for c := 0; c < 6; c++ {
				qo1[c] = 0.999*qo1[c] + 0.001*v1[0]
				qo2[c] = 0.999*qo2[c] + 0.001*v2[0]
			}
		}}
	kPeriodicity6 = &core.Kernel{Name: "periodicity", Flops: 24, MemBytes: 200,
		Fn: func(a [][]float64) {
			qa, qb := a[0], a[1]
			for c := 0; c < 6; c++ {
				s := 0.5 * (qa[c] + qb[c])
				qa[c], qb[c] = s, s
			}
		}}

	// --- gradl chain ---
	kEdgecon = &core.Kernel{Name: "edgecon", Flops: 300, MemBytes: 700,
		Fn: func(a [][]float64) {
			qp1, qp2, ql1, ql2, x1, x2, ew := a[0], a[1], a[2], a[3], a[4], a[5], a[6]
			for c := 0; c < 5; c++ {
				g := 0.01 * ew[c%3] * (x2[c%3] - x1[c%3])
				qp1[c] += g
				qp2[c] -= g
				ql1[c] += 0.5 * g
				ql2[c] -= 0.5 * g
			}
		}}
	kGradPeriod = &core.Kernel{Name: "period", Flops: 40, MemBytes: 320,
		Fn: func(a [][]float64) {
			qpa, qpb, qla, qlb := a[0], a[1], a[2], a[3]
			for c := 0; c < 5; c++ {
				s := 0.5 * (qpa[c] + qpb[c])
				qpa[c], qpb[c] = s, s
				s = 0.5 * (qla[c] + qlb[c])
				qla[c], qlb[c] = s, s
			}
		}}

	// --- vflux chain (the most expensive loops in Hydra) ---
	kInitres = &core.Kernel{Name: "initres", Flops: 0, MemBytes: 40,
		Fn: func(a [][]float64) {
			for i := range a[0] {
				a[0][i] = 0
			}
		}}
	kVfluxEdge = &core.Kernel{Name: "vflux_edge", Flops: 700, MemBytes: 1200,
		Fn: func(a [][]float64) {
			res1, res2 := a[0], a[1]
			qp1, qp2 := a[2], a[3]
			ql1, ql2 := a[4], a[5]
			x1, x2 := a[6], a[7]
			mu1, mu2 := a[8], a[9]
			rg1, rg2 := a[10], a[11]
			ew := a[12]
			dx := x2[0] - x1[0]
			dy := x2[1] - x1[1]
			dz := x2[2] - x1[2]
			dist := math.Sqrt(dx*dx+dy*dy+dz*dz) + 1e-12
			mu := 0.5 * (mu1[0] + mu2[0])
			rg := 0.5 * (rg1[0] + rg2[0])
			area := math.Sqrt(ew[0]*ew[0] + ew[1]*ew[1] + ew[2]*ew[2])
			coef := mu * rg * area / dist
			for c := 0; c < 5; c++ {
				f := coef * ((qp2[c] - qp1[c]) + 0.3*(ql2[c]-ql1[c]))
				res1[c] += f
				res2[c] -= f
			}
		}}

	// --- iflux chain ---
	kInitViscres = &core.Kernel{Name: "initviscres", Flops: 0, MemBytes: 40,
		Fn: func(a [][]float64) {
			for i := range a[0] {
				a[0][i] = 0
			}
		}}
	kIfluxEdge = &core.Kernel{Name: "iflux_edge", Flops: 200, MemBytes: 500,
		Fn: func(a [][]float64) {
			vr1, vr2, rg1, rg2, ew := a[0], a[1], a[2], a[3], a[4]
			d := rg2[0] - rg1[0]
			for c := 0; c < 5; c++ {
				f := d * ew[c%3] * 0.2
				vr1[c] += f
				vr2[c] -= f
			}
		}}

	// --- jacob chain ---
	kJacPeriod = &core.Kernel{Name: "jac_period", Flops: 600, MemBytes: 800,
		Fn: func(a [][]float64) {
			ja, jb, jaa, jab := a[0], a[1], a[2], a[3]
			for c := 0; c < 5; c++ {
				s := 0.5 * (ja[c] + jb[c])
				ja[c], jb[c] = s, s
				s = 0.5 * (jaa[c] + jab[c])
				jaa[c], jab[c] = s, s
			}
		}}
	kJacCentreline = &core.Kernel{Name: "jac_centreline", Flops: 200, MemBytes: 300,
		Fn: func(a [][]float64) {
			jaca, cw := a[0], a[1]
			for c := 0; c < 5; c++ {
				jaca[c] = cw[0] * 0.2 * float64(c+1)
			}
		}}
	kJacCorrections = &core.Kernel{Name: "jac_corrections", Flops: 400, MemBytes: 500,
		Fn: func(a [][]float64) {
			jac, bw := a[0], a[1]
			for c := 0; c < 5; c++ {
				jac[c] += 0.05 * bw[c%3]
			}
		}}

	// --- Runge-Kutta skeleton (the remaining ~2/3 of the runtime) ---
	kRKStep = &core.Kernel{Name: "rk_step", Flops: 1200, MemBytes: 1600,
		Fn: func(a [][]float64) {
			qp, ql, res, vres, jac := a[0], a[1], a[2], a[3], a[4]
			rk := a[5][0]
			for c := 0; c < 5; c++ {
				d := rk * (res[c] + vres[c]) / (1 + math.Abs(jac[c]))
				qp[c] = 0.995*qp[c] + d
				ql[c] = 0.9*ql[c] + 0.1*qp[c]
			}
		}}
	kTurb = &core.Kernel{Name: "turb", Flops: 150, MemBytes: 300,
		Fn: func(a [][]float64) {
			qmu, qrg, qp := a[0], a[1], a[2]
			s := 0.0
			for c := 0; c < 5; c++ {
				s += qp[c] * qp[c]
			}
			qmu[0] = 0.9*qmu[0] + 0.001*s
			qrg[0] = 0.95*qrg[0] + 0.05/(1+s)
		}}
)

// kPreprocess stands in for Hydra's mesh preprocessing, which modifies qo
// and vol before the weight and period chains run; it dirties their halos so
// the setup chains exchange, as they do in the production code.
var kPreprocess = &core.Kernel{Name: "preprocess", Flops: 20, MemBytes: 120,
	Fn: func(a [][]float64) {
		qo, vol, xp := a[0], a[1], a[2]
		for c := 0; c < 6; c++ {
			qo[c] += 0.001 * xp[c%3]
		}
		vol[0] *= 1 + 1e-6*xp[0]
	}}

// The six published chains in table order: indices into App.chains.
const (
	chainWeight = iota
	chainPeriod
	chainGradl
	chainVflux
	chainIflux
	chainJacob
	numChains
)

var chainNames = [numChains]string{"weight", "period", "gradl", "vflux", "iflux", "jacob"}

// declareLoops builds every loop the app issues, once: New calls it, and
// the Run methods issue these tables unchanged. One App may be stepped by
// several backends at once, so a stored loop holds no buffer a backend
// writes: the RK stages' coefficients are Read globals.
func (a *App) declareLoops() {
	a.preprocess = core.NewLoop(kPreprocess, a.Nodes,
		core.ArgDatDirect(a.Qo, core.ReadWrite),
		core.ArgDatDirect(a.Vol, core.ReadWrite),
		core.ArgDatDirect(a.Xp, core.Read))

	a.chains[chainWeight] = []core.Loop{
		core.NewLoop(kSumbwts, a.Bnd,
			core.ArgDat(a.Qo, 0, a.B2N, core.Inc),
			core.ArgDatDirect(a.Bw, core.Read)),
		core.NewLoop(kPeriodSym6, a.Pedges,
			core.ArgDat(a.Qo, 0, a.P2N, core.ReadWrite),
			core.ArgDat(a.Qo, 1, a.P2N, core.ReadWrite)),
		core.NewLoop(kCentreline, a.Cbnd,
			core.ArgDat(a.Qo, 0, a.CB2N, core.Write),
			core.ArgDatDirect(a.Cw, core.Read)),
		core.NewLoop(kEdgeLength, a.Edges,
			core.ArgDat(a.Qo, 0, a.E2N, core.ReadWrite),
			core.ArgDat(a.Qo, 1, a.E2N, core.ReadWrite),
			core.ArgDatDirect(a.Ew, core.Read)),
		core.NewLoop(kPeriodicity6, a.Pedges,
			core.ArgDat(a.Qo, 0, a.P2N, core.ReadWrite),
			core.ArgDat(a.Qo, 1, a.P2N, core.ReadWrite)),
	}

	// The period chain of Table 3: negflag, limxp, periodicity, limxp,
	// periodicity, negflag.
	negflag := core.NewLoop(kNegflag, a.Pedges,
		core.ArgDat(a.Vol, 0, a.P2N, core.ReadWrite),
		core.ArgDat(a.Vol, 1, a.P2N, core.ReadWrite))
	limxp := core.NewLoop(kLimxp, a.Edges,
		core.ArgDat(a.Qo, 0, a.E2N, core.ReadWrite),
		core.ArgDat(a.Qo, 1, a.E2N, core.ReadWrite),
		core.ArgDat(a.Vol, 0, a.E2N, core.Read),
		core.ArgDat(a.Vol, 1, a.E2N, core.Read))
	periodicity := core.NewLoop(kPeriodicity6, a.Pedges,
		core.ArgDat(a.Qo, 0, a.P2N, core.ReadWrite),
		core.ArgDat(a.Qo, 1, a.P2N, core.ReadWrite))
	a.chains[chainPeriod] = []core.Loop{negflag, limxp, periodicity, limxp, periodicity, negflag}

	a.chains[chainGradl] = []core.Loop{
		core.NewLoop(kEdgecon, a.Edges,
			core.ArgDat(a.Qp, 0, a.E2N, core.Inc),
			core.ArgDat(a.Qp, 1, a.E2N, core.Inc),
			core.ArgDat(a.Ql, 0, a.E2N, core.Inc),
			core.ArgDat(a.Ql, 1, a.E2N, core.Inc),
			core.ArgDat(a.Xp, 0, a.E2N, core.Read),
			core.ArgDat(a.Xp, 1, a.E2N, core.Read),
			core.ArgDatDirect(a.Ew, core.Read)),
		core.NewLoop(kGradPeriod, a.Pedges,
			core.ArgDat(a.Qp, 0, a.P2N, core.ReadWrite),
			core.ArgDat(a.Qp, 1, a.P2N, core.ReadWrite),
			core.ArgDat(a.Ql, 0, a.P2N, core.ReadWrite),
			core.ArgDat(a.Ql, 1, a.P2N, core.ReadWrite)),
	}

	a.chains[chainVflux] = []core.Loop{
		core.NewLoop(kInitres, a.Nodes,
			core.ArgDatDirect(a.Res, core.Write)),
		core.NewLoop(kVfluxEdge, a.Edges,
			core.ArgDat(a.Res, 0, a.E2N, core.Inc),
			core.ArgDat(a.Res, 1, a.E2N, core.Inc),
			core.ArgDat(a.Qp, 0, a.E2N, core.Read),
			core.ArgDat(a.Qp, 1, a.E2N, core.Read),
			core.ArgDat(a.Ql, 0, a.E2N, core.Read),
			core.ArgDat(a.Ql, 1, a.E2N, core.Read),
			core.ArgDat(a.Xp, 0, a.E2N, core.Read),
			core.ArgDat(a.Xp, 1, a.E2N, core.Read),
			core.ArgDat(a.Qmu, 0, a.E2N, core.Read),
			core.ArgDat(a.Qmu, 1, a.E2N, core.Read),
			core.ArgDat(a.Qrg, 0, a.E2N, core.Read),
			core.ArgDat(a.Qrg, 1, a.E2N, core.Read),
			core.ArgDatDirect(a.Ew, core.Read)),
	}

	a.chains[chainIflux] = []core.Loop{
		core.NewLoop(kInitViscres, a.Nodes,
			core.ArgDatDirect(a.ViscRes, core.Write)),
		core.NewLoop(kIfluxEdge, a.Edges,
			core.ArgDat(a.ViscRes, 0, a.E2N, core.Inc),
			core.ArgDat(a.ViscRes, 1, a.E2N, core.Inc),
			core.ArgDat(a.Qrg, 0, a.E2N, core.Read),
			core.ArgDat(a.Qrg, 1, a.E2N, core.Read),
			core.ArgDatDirect(a.Ew, core.Read)),
	}

	a.chains[chainJacob] = []core.Loop{
		core.NewLoop(kJacPeriod, a.Pedges,
			core.ArgDat(a.Jac, 0, a.P2N, core.ReadWrite),
			core.ArgDat(a.Jac, 1, a.P2N, core.ReadWrite),
			core.ArgDat(a.Jaca, 0, a.P2N, core.ReadWrite),
			core.ArgDat(a.Jaca, 1, a.P2N, core.ReadWrite)),
		core.NewLoop(kJacCentreline, a.Cbnd,
			core.ArgDat(a.Jaca, 0, a.CB2N, core.Write),
			core.ArgDatDirect(a.Cw, core.Read)),
		core.NewLoop(kJacCorrections, a.Bnd,
			core.ArgDat(a.Jac, 0, a.B2N, core.Inc),
			core.ArgDatDirect(a.Bw, core.Read)),
	}

	for s := range a.rk {
		a.rk[s] = core.NewLoop(kRKStep, a.Nodes,
			core.ArgDatDirect(a.Qp, core.ReadWrite),
			core.ArgDatDirect(a.Ql, core.ReadWrite),
			core.ArgDatDirect(a.Res, core.Read),
			core.ArgDatDirect(a.ViscRes, core.Read),
			core.ArgDatDirect(a.Jac, core.Read),
			core.ArgGbl([]float64{rkCoeffs[s] * 0.01}, core.Read))
	}
	a.turb = core.NewLoop(kTurb, a.Nodes,
		core.ArgDatDirect(a.Qmu, core.ReadWrite),
		core.ArgDatDirect(a.Qrg, core.ReadWrite),
		core.ArgDatDirect(a.Qp, core.Read))
}

// runChain issues chain c's declared loops, wrapped in ChainBegin/ChainEnd
// when chained is true.
func (a *App) runChain(b core.Backend, c int, chained bool) {
	if chained {
		b.ChainBegin(chainNames[c])
	}
	for _, l := range a.chains[c] {
		b.ParLoop(l)
	}
	if chained {
		b.ChainEnd()
	}
}

// RunSetup executes the setup phase: preprocessing followed by the weight
// and period chains of Table 3. In the paper these chains run once, outside
// the main time-marching loop.
func (a *App) RunSetup(b core.Backend, chained bool) {
	b.ParLoop(a.preprocess)
	a.RunWeight(b, chained)
	a.RunPeriod(b, chained)
}

// RunWeight is the 5-loop weight chain of Table 3.
func (a *App) RunWeight(b core.Backend, chained bool) { a.runChain(b, chainWeight, chained) }

// RunPeriod is the 6-loop period chain of Table 3: negflag, limxp,
// periodicity, limxp, periodicity, negflag.
func (a *App) RunPeriod(b core.Backend, chained bool) { a.runChain(b, chainPeriod, chained) }

// RunGradl is the 2-loop gradl chain of Table 3.
func (a *App) RunGradl(b core.Backend, chained bool) { a.runChain(b, chainGradl, chained) }

// RunVflux is the 2-loop vflux chain of Table 4 (initres + vflux_edge, the
// most expensive loop in Hydra, 18% of runtime).
func (a *App) RunVflux(b core.Backend, chained bool) { a.runChain(b, chainVflux, chained) }

// RunIflux is the 2-loop iflux chain of Table 4.
func (a *App) RunIflux(b core.Backend, chained bool) { a.runChain(b, chainIflux, chained) }

// RunJacob is the 3-loop jacob chain of Table 4.
func (a *App) RunJacob(b core.Backend, chained bool) { a.runChain(b, chainJacob, chained) }

// rkCoeffs are the 5-stage Runge-Kutta coefficients.
var rkCoeffs = [5]float64{0.0533, 0.1263, 0.2375, 0.4414, 1.0}

// RunRK runs the 5-stage explicit update and the turbulence loop: direct
// node loops making up the bulk (~2/3) of the per-iteration cost. They
// re-dirty qp, ql, qmu and qrg, so the next iteration's chains exchange
// again, exactly as in the production code.
func (a *App) RunRK(b core.Backend) {
	for _, l := range a.rk {
		b.ParLoop(l)
	}
	b.ParLoop(a.turb)
}

// RunIteration runs one time-marching iteration: the four in-loop chains
// (gradl, vflux, iflux, jacob) and the RK skeleton. The weight and period
// chains belong to the setup phase (RunSetup), as in the paper.
func (a *App) RunIteration(b core.Backend, chained bool) {
	a.RunGradl(b, chained)
	a.RunIflux(b, chained)
	a.RunVflux(b, chained)
	a.RunJacob(b, chained)
	a.RunRK(b)
}

// ChainNames lists the six published chains in table order.
func ChainNames() []string { return append([]string(nil), chainNames[:]...) }

// ChainLoops returns a copy of the named chain's declared loops, for
// inspection and reporting. It panics on unknown names.
func (a *App) ChainLoops(name string) []core.Loop {
	for c, n := range chainNames {
		if n == name {
			return append([]core.Loop(nil), a.chains[c]...)
		}
	}
	panic("hydra: unknown chain " + name)
}
