package conflux

import (
	"fmt"
	"slices"

	"repro/internal/blas"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/smpi"
)

// Result carries the factorization output. Perm is the pivot order:
// Perm[k] is the PHYSICAL row that became the k-th pivot (rows are never
// moved — COnfLUX masks instead of swapping). In numeric mode world rank 0
// additionally holds LU, the combined in-place factors in logical (pivot)
// row order, so A[Perm,:] = L·U.
type Result struct {
	Perm []int
	LU   *mat.Matrix
}

// Run executes COnfLUX on an existing world. The input matrix a is consulted
// at world rank 0 only (nil in volume mode). Ranks outside the optimized
// grid (opt.Grid.Used() ≤ world size) idle, exactly as the paper's Processor
// Grid Optimization "possibly disabl[es] a minor fraction of nodes".
func Run(c *smpi.Comm, a *mat.Matrix, opt Options) (*Result, error) {
	if opt.Name == "" {
		opt.Name = "COnfLUX"
	}
	if opt.V < opt.Grid.Layers {
		panic(fmt.Sprintf("conflux: v=%d must be at least the layer count c=%d (paper §7.2)", opt.V, opt.Grid.Layers))
	}
	if c.Size() != opt.Grid.Total {
		panic(fmt.Sprintf("conflux: world %d != grid total %d", c.Size(), opt.Grid.Total))
	}
	if c.WorldRank() >= opt.Grid.Used() {
		return &Result{}, nil // disabled rank
	}
	e := &engine{world: c, opt: opt}
	return e.run(a)
}

type engine struct {
	world *smpi.Comm
	opt   Options

	g               grid.Grid
	bc              grid.BlockCyclic
	row, col, layer int
	ac              *smpi.Comm // active ranks
	fiber           *smpi.Comm // my (row, col) fiber across layers
	tourn           *smpi.Comm // layer-0 column communicator (nil off layer 0)
	store           *dist.Store

	rows *dist.RowIndex // rows not yet chosen as pivots — the row mask
	perm []int

	// Per-step caches.
	a00    *mat.Matrix // factored w×w diagonal block (L00\U00)
	pivIDs []int       // this step's pivot rows in factor order
	a10    *mat.Matrix // consumer copy: L10 rows for my grid row
	a10IDs []int
	a01    *mat.Matrix // consumer copy: U01 for my grid-column tile cols
}

func (e *engine) run(a *mat.Matrix) (*Result, error) {
	e.g = e.opt.Grid
	e.bc = grid.BlockCyclic{G: e.g, V: e.opt.V, N: e.opt.N}
	e.row, e.col, e.layer = e.g.Coords(e.world.Rank())
	e.ac = e.world.Sub("active", e.g.ActiveComm())
	e.fiber = e.ac.Sub(fmt.Sprintf("fiber.%d.%d", e.row, e.col), e.g.FiberComm(e.row, e.col))
	if e.layer == 0 {
		e.tourn = e.ac.Sub(fmt.Sprintf("tourn.%d", e.col), e.g.ColComm(e.col, 0))
	}
	e.store = dist.NewStore(e.bc, e.row, e.col, e.layer, e.world.Payload())
	e.rows = dist.NewRowIndex(e.opt.N, e.opt.V, e.g.Pr)
	if e.layer == 0 {
		dist.Scatter(e.world, 0, a, e.g, e.store)
	}

	nt := e.bc.Tiles()
	for t := 0; t < nt; t++ {
		if err := e.selectPivots(t); err != nil {
			return nil, err
		}
		e.broadcastA00(t)
		e.retirePivots()
		e.factorizeA10(t)
		e.factorizeA01(t)
		e.update(t)
	}

	res := &Result{Perm: e.perm}
	if e.layer == 0 {
		var lu *mat.Matrix
		if e.world.Rank() == 0 {
			phys := mat.NewPhantom(e.opt.N, e.opt.N)
			if e.world.Payload() {
				phys = mat.New(e.opt.N, e.opt.N)
			}
			dist.Gather(e.world, 0, phys, e.g, e.store)
			if e.world.Payload() {
				lu = mat.PermuteRows(phys, e.perm)
			} else {
				lu = phys
			}
		} else {
			dist.Gather(e.world, 0, nil, e.g, e.store)
		}
		res.LU = lu
	}
	return res, nil
}

// selectPivots runs Algorithm 1 steps 1–2 on the owners of tile column t.
// Step 1 ("Reduce next block column") sums the column's active rows across
// the c layers onto layer 0. Step 2 (TournPivot) plays the tournament over
// layer 0, after which every participant holds the w winners and the
// factored A00.
func (e *engine) selectPivots(t int) error {
	e.pivIDs, e.a00 = nil, nil
	if e.col != e.bc.OwnerCol(t) {
		return nil
	}
	e.ac.SetPhase(e.opt.Name + ".reduce-col")
	rows := e.rows.Rows(e.row)
	stack := dist.ReduceRows(e.fiber, e.store, e.store.Column(t), rows)
	if e.layer != 0 {
		return nil
	}
	e.ac.SetPhase(e.opt.Name + ".pivot")
	_, w := e.bc.TileDims(t, t)
	a00, ids, err := dist.Tournament(e.tourn, stack, rows, w)
	if err != nil {
		return err
	}
	e.a00, e.pivIDs = a00, ids
	return nil
}

// broadcastA00 implements step 3: the factored A00 and the w pivot row
// indices are broadcast to all active ranks (cost v²+v per rank).
func (e *engine) broadcastA00(t int) {
	e.ac.SetPhase(e.opt.Name + ".bcast-a00")
	_, w := e.bc.TileDims(t, t)
	root := e.g.Rank(0, e.bc.OwnerCol(t), 0)
	if e.a00 == nil {
		e.a00 = e.store.NewBuffer(w, w)
	}
	e.ac.BcastMat(root, e.a00)
	e.pivIDs = e.ac.BcastInts(root, e.pivIDs)

	// Write A00 back into the layer-0 owners' tiles: the pivot rows' final
	// combined L00\U00 values.
	if e.layer == 0 && e.col == e.bc.OwnerCol(t) && e.store.Payload() {
		for i, r := range e.pivIDs {
			ti := r / e.opt.V
			if e.bc.OwnerRow(ti) == e.row {
				e.store.Tile(ti, t).View(r-ti*e.opt.V, 0, 1, w).CopyFrom(e.a00.View(i, 0, 1, w))
			}
		}
	}
}

// retirePivots applies the row mask (§7.3: "we keep track which rows were
// chosen as pivots and we use masks to update remaining rows"): the pivot
// rows leave the active-row index wherever they sit, and are recorded in
// the pivot order. Rows are never moved.
func (e *engine) retirePivots() {
	e.rows.Retire(e.pivIDs)
	e.perm = append(e.perm, e.pivIDs...)
}

// factorizeA10 implements steps 4/7/8 for the column panel: the still-active
// rows of the reduced block column are triangular-solved against U00 at the
// panel owners (see DESIGN.md: the 1D-parallel solve is volume-equivalent),
// written back as final L values, and sent to the assigned layer's consumer
// row (one broadcast per grid row).
func (e *engine) factorizeA10(t int) {
	e.ac.SetPhase(e.opt.Name + ".panel-a10")
	e.a10, e.a10IDs = nil, nil
	_, w := e.bc.TileDims(t, t)
	lstar := t % e.g.Layers
	ownerCol := e.bc.OwnerCol(t)
	col := e.store.Column(t)

	// Every rank holds every grid row's active list; pivots were already
	// retired above.
	for gr := 0; gr < e.g.Pr; gr++ {
		grRows := e.rows.Rows(gr)
		members, rootIdx := a10Members(e.g, gr, ownerCol, lstar)
		if !slices.Contains(members, e.world.Rank()) {
			continue
		}
		comm := e.ac.Sub(fmt.Sprintf("a10.%d.%d", t, gr), members)
		var buf *mat.Matrix
		if e.g.Rank(gr, ownerCol, 0) == e.world.Rank() {
			// I am the owner: the reduced column sits in my tiles. Solve
			// the active rows, store the L values, and broadcast.
			buf = e.store.Pack(col, grRows)
			blas.TrsmUpperRight(e.a00, buf)
			e.store.Unpack(col, grRows, buf)
		} else {
			buf = e.store.NewBuffer(len(grRows), w)
		}
		if len(grRows) > 0 {
			comm.BcastMat(rootIdx, buf)
		}
		if e.layer == lstar && e.row == gr {
			e.a10, e.a10IDs = buf, grRows
		}
	}
}

// a10Members returns the broadcast group for grid row gr: the layer-0 panel
// owner plus the assigned layer's consumer row, deduplicated, owner first.
func a10Members(g grid.Grid, gr, ownerCol, lstar int) (members []int, rootIdx int) {
	owner := g.Rank(gr, ownerCol, 0)
	members = append(make([]int, 0, g.Pc+1), owner)
	for y := 0; y < g.Pc; y++ {
		r := g.Rank(gr, y, lstar)
		if r != owner {
			members = append(members, r)
		}
	}
	return members, 0
}
