// Package hydra is a proxy for OP2-Hydra, the Rolls-Royce production RANS
// solver of the paper's Section 4.2. The real application (~100k lines of
// Fortran, ~500 parallel loops) is proprietary; this proxy reproduces what
// the communication-avoiding results depend on — the six published
// loop-chains of Tables 3 and 4 with their exact iteration sets, access
// descriptors and halo extensions, embedded in a 5-stage Runge-Kutta
// time-marching skeleton whose per-chain cost fractions follow the paper
// (vflux 18%, iflux 5%, gradl 8%, jacob 2% of total runtime) — with
// synthetic flux-like kernel arithmetic.
//
// Two chain configurations are provided. PaperConfig pins the published
// per-loop halo extensions of Tables 3-4 and is used for the performance
// reproduction (the production app's numerics tolerate the shallow
// extensions; see DESIGN.md). Safe mode (no configuration) lets the
// inspector deepen the weight and period chains until results are exact,
// and is what the correctness tests run.
package hydra

import (
	"op2ca/internal/chaincfg"
	"op2ca/internal/core"
	"op2ca/internal/mesh"
)

// App is the Hydra-proxy program over a rotor mesh.
type App struct {
	Prog *core.Program

	Nodes  *core.Set
	Edges  *core.Set
	Pedges *core.Set
	Bnd    *core.Set
	Cbnd   *core.Set

	E2N  *core.Map
	P2N  *core.Map
	B2N  *core.Map
	CB2N *core.Map

	// Node data.
	Qo      *core.Dat // weights / old state, dim 6
	Vol     *core.Dat // control volumes (RW in the period chain)
	Qp      *core.Dat // primary state, dim 5
	Ql      *core.Dat // limiter state, dim 5
	Qmu     *core.Dat // eddy viscosity
	Qrg     *core.Dat
	Xp      *core.Dat // coordinates, dim 3 (never dirty)
	Jac     *core.Dat // block-Jacobi diagonal, dim 5
	Jaca    *core.Dat
	Res     *core.Dat // vflux residual, dim 5
	ViscRes *core.Dat // iflux residual, dim 5

	// Edge / boundary data (constant).
	Ew *core.Dat // edge weights, dim 3
	Bw *core.Dat // boundary weights
	Cw *core.Dat // centreline weights

	// The loops the app issues, built once by declareLoops.
	preprocess core.Loop
	chains     [numChains][]core.Loop
	rk         [len(rkCoeffs)]core.Loop
	turb       core.Loop
}

// New declares the Hydra-proxy program over the rotor mesh. The mesh must
// be periodic (pedges present).
func New(m *mesh.FV3D) *App {
	a := &App{Prog: core.NewProgram()}
	a.Nodes = a.Prog.DeclSet(m.NNodes, "nodes")
	a.Edges = a.Prog.DeclSet(m.NEdges, "edges")
	a.Pedges = a.Prog.DeclSet(m.NPedges, "pedges")
	a.Bnd = a.Prog.DeclSet(m.NBedges, "bnd")
	a.Cbnd = a.Prog.DeclSet(m.NCbnd, "cbnd")
	a.E2N = a.Prog.DeclMap(a.Edges, a.Nodes, 2, m.EdgeNodes, "e2n")
	a.P2N = a.Prog.DeclMap(a.Pedges, a.Nodes, 2, m.PedgeNodes, "p2n")
	a.B2N = a.Prog.DeclMap(a.Bnd, a.Nodes, 1, m.BedgeNodes, "b2n")
	a.CB2N = a.Prog.DeclMap(a.Cbnd, a.Nodes, 1, m.CbndNodes, "cb2n")

	a.Qo = a.Prog.DeclDat(a.Nodes, 6, nil, "qo")
	a.Vol = a.Prog.DeclDat(a.Nodes, 1, append([]float64(nil), m.Volumes...), "vol")
	a.Qp = a.Prog.DeclDat(a.Nodes, 5, nil, "qp")
	a.Ql = a.Prog.DeclDat(a.Nodes, 5, nil, "ql")
	a.Qmu = a.Prog.DeclDat(a.Nodes, 1, nil, "qmu")
	a.Qrg = a.Prog.DeclDat(a.Nodes, 1, nil, "qrg")
	a.Xp = a.Prog.DeclDat(a.Nodes, 3, append([]float64(nil), m.Coords...), "xp")
	a.Jac = a.Prog.DeclDat(a.Nodes, 5, nil, "jac")
	a.Jaca = a.Prog.DeclDat(a.Nodes, 5, nil, "jaca")
	a.Res = a.Prog.DeclDat(a.Nodes, 5, nil, "res")
	a.ViscRes = a.Prog.DeclDat(a.Nodes, 5, nil, "viscres")

	a.Ew = a.Prog.DeclDat(a.Edges, 3, append([]float64(nil), m.EdgeWeights...), "ew")
	a.Bw = a.Prog.DeclDat(a.Bnd, 3, append([]float64(nil), m.BedgeWeights...), "bw")
	cw := make([]float64, m.NCbnd)
	for i := range cw {
		cw[i] = 0.5 + 0.25*float64(i%3)
	}
	a.Cw = a.Prog.DeclDat(a.Cbnd, 1, cw, "cw")

	// Initial state: smooth fields derived from coordinates.
	for n := 0; n < m.NNodes; n++ {
		x, y, z := m.Coords[3*n], m.Coords[3*n+1], m.Coords[3*n+2]
		for c := 0; c < 5; c++ {
			a.Qp.Data[n*5+c] = 1 + 0.1*x + 0.05*y*float64(c) - 0.02*z
			a.Ql.Data[n*5+c] = 0.5 + 0.02*z*float64(c+1)
		}
		for c := 0; c < 6; c++ {
			a.Qo.Data[n*6+c] = 1 + 0.01*float64(c)*x
		}
		a.Qmu.Data[n] = 0.01 + 0.001*y
		a.Qrg.Data[n] = 1 + 0.05*x*z
	}
	a.declareLoops()
	return a
}

// PaperConfig returns the paper's CA configuration file content for the six
// Hydra chains: the published per-loop halo extensions of Tables 3 and 4.
func PaperConfig() string {
	return `# OP2-Hydra loop-chains, ICPP 2023 Tables 3 and 4
chain weight maxhe=2
  loop sumbwts he=2
  loop periodsym he=1
  loop centreline he=2
  loop edgelength he=2
  loop periodicity he=1
chain period maxhe=2
  loop negflag he=2
  loop limxp he=2
  loop periodicity he=1
  loop limxp2 he=2
  loop periodicity2 he=1
  loop negflag2 he=1
chain gradl maxhe=2
  loop edgecon he=2
  loop period he=1
chain vflux maxhe=1
chain iflux maxhe=1
chain jacob maxhe=1
`
}

// MustPaperConfig parses PaperConfig.
func MustPaperConfig() *chaincfg.Config {
	cfg, err := chaincfg.ParseString(PaperConfig())
	if err != nil {
		panic("hydra: bad built-in config: " + err.Error())
	}
	return cfg
}
