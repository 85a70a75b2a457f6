package dist

import (
	"fmt"
	"sort"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/mat"
	"repro/internal/smpi"
)

// The 2.5D engine core: the machinery COnfLUX, CANDMC and Cholesky share.
// The paper (§7.3) runs both LU codes on the same CALU tournament over c
// replication layers with lazy Schur accumulators; they differ only in
// masking versus physically swapping pivot rows. So the engines keep just
// their policy — which rows retire when, how pivot rows move, how panels
// are distributed, and every phase label (nothing here calls SetPhase) —
// and run it on these pieces: the active-row index, the row-segment
// layout with pack/unpack/zero, the cross-layer reduction, the tournament
// and the masked Schur-update tile loop.

// RowIndex is the incremental active-row index of a 2.5D run: for every
// grid row, the ascending list of the global rows it owns (tile ti lives
// on grid row ti mod Pr) that are still active. It is built once in O(N);
// Retire filters what is left, so each step costs O(active rows) and
// nothing once the factorization has drained them.
//
// A list returned by Rows is not mutated by the next Retire: a grid row
// that loses only leading rows is resliced, and one that loses rows in the
// middle is rebuilt in a second buffer (which a list from two retires ago
// may still alias). So a caller may hold a step's row list across that
// step's retire without copying it.
type RowIndex struct {
	v, pr  int
	active []bool
	rows   [][]int // per grid row, ascending
	spare  [][]int // per grid row, the buffer the next rebuild writes
	hits   []int   // per grid row, rows retired by the current call
}

// NewRowIndex indexes all n rows as active, for blocking v on pr grid rows.
func NewRowIndex(n, v, pr int) *RowIndex {
	x := &RowIndex{v: v, pr: pr, active: make([]bool, n),
		rows: make([][]int, pr), spare: make([][]int, pr), hits: make([]int, pr)}
	all := make([]int, 0, n)
	for gr := 0; gr < pr; gr++ {
		start := len(all)
		for lo := gr * v; lo < n; lo += pr * v {
			for r := lo; r < lo+v && r < n; r++ {
				all = append(all, r)
				x.active[r] = true
			}
		}
		x.rows[gr] = all[start:len(all):len(all)]
	}
	return x
}

// Rows returns the active rows of grid row gr, ascending. The caller must
// not modify the list.
func (x *RowIndex) Rows(gr int) []int { return x.rows[gr] }

// Retire removes rows from the active set. Retiring a row twice panics:
// it means a schedule chose one pivot row in two steps.
func (x *RowIndex) Retire(rows []int) {
	for _, r := range rows {
		if !x.active[r] {
			panic(fmt.Sprintf("dist: row %d retired twice", r))
		}
		x.active[r] = false
		x.hits[(r/x.v)%x.pr]++
	}
	for gr, k := range x.hits {
		if k == 0 {
			continue
		}
		x.hits[gr] = 0
		list := x.rows[gr]
		lead := 0
		for lead < len(list) && !x.active[list[lead]] {
			lead++
		}
		if lead == k {
			x.rows[gr] = list[k:]
			continue
		}
		live := x.spare[gr][:0]
		for _, r := range list[lead:] {
			if x.active[r] {
				live = append(live, r)
			}
		}
		x.rows[gr], x.spare[gr] = live, list[:0:len(list)]
	}
}

// Segments lays tile columns side by side in one packed row: segment k is
// tile column Tjs[k], Widths[k] wide, at column offset Offs[k] of a row of
// Total columns.
type Segments struct {
	Tjs, Offs, Widths []int
	Total             int
}

func (s *Store) segments(tjs []int) Segments {
	seg := Segments{Tjs: tjs, Offs: make([]int, len(tjs)), Widths: make([]int, len(tjs))}
	for k, tj := range tjs {
		_, w := s.bc.TileDims(tj, tj)
		seg.Offs[k], seg.Widths[k] = seg.Total, w
		seg.Total += w
	}
	return seg
}

// Column lays out the single tile column tj.
func (s *Store) Column(tj int) Segments { return s.segments([]int{tj}) }

// SegmentsFrom lays out this rank's tile columns tj >= from.
func (s *Store) SegmentsFrom(from int) Segments {
	return s.segments(s.bc.LocalTileCols(s.col, from))
}

// segment returns global row r's first w entries in local tile column tj.
func (s *Store) segment(r, tj, w int) []float64 {
	ti := r / s.bc.V
	return s.Tile(ti, tj).Row(r - ti*s.bc.V)[:w]
}

// Pack copies the given global rows, across seg, out of the local tiles
// into a new len(rows)×Total buffer (phantom in volume mode, where no tile
// is touched).
func (s *Store) Pack(seg Segments, rows []int) *mat.Matrix {
	buf := s.NewBuffer(len(rows), seg.Total)
	if s.payload {
		for i, r := range rows {
			dst := buf.Row(i)
			for k, tj := range seg.Tjs {
				copy(dst[seg.Offs[k]:], s.segment(r, tj, seg.Widths[k]))
			}
		}
	}
	return buf
}

// Unpack writes a Pack-shaped buffer back into the local tiles.
func (s *Store) Unpack(seg Segments, rows []int, buf *mat.Matrix) {
	if s.payload {
		for i, r := range rows {
			src := buf.Row(i)
			for k, tj := range seg.Tjs {
				copy(s.segment(r, tj, seg.Widths[k]), src[seg.Offs[k]:])
			}
		}
	}
}

// Zero clears the given rows across seg in the local tiles.
func (s *Store) Zero(seg Segments, rows []int) {
	if s.payload {
		for _, r := range rows {
			for k, tj := range seg.Tjs {
				clear(s.segment(r, tj, seg.Widths[k]))
			}
		}
	}
}

// ReduceRows sums the given rows across seg over the fiber (the rank's
// replication layers) onto layer 0 — Algorithm 1's reduction of a block
// column (step 1) or of the pivot rows (step 5). Layer 0 writes the sums
// back into its tiles and returns them as a stack; the other layers zero
// the contributions they handed over and return nil. Every layer of a
// fiber holds the same rows, so an empty list or layout skips the
// collective everywhere and returns nil.
func ReduceRows(fiber *smpi.Comm, s *Store, seg Segments, rows []int) *mat.Matrix {
	if len(rows) == 0 || seg.Total == 0 {
		return nil
	}
	stack := s.Pack(seg, rows)
	fiber.ReduceMatSum(0, stack)
	if s.layer != 0 {
		s.Zero(seg, rows)
		return nil
	}
	s.Unpack(seg, rows, stack)
	return stack
}

// Tournament runs CALU tournament pivoting (Grigori, Demmel, Xiang; paper
// §7.3) over comm, the layer-0 ranks of the panel's grid column: each rank
// selects w local candidates from its reduced stack (rows lists their
// global ids; a nil stack has none) by LU with partial pivoting, then
// ⌈log₂ size⌉ butterfly playoff rounds exchange candidate blocks. Every
// participant returns the factored w×w A00 (L00\U00) and the w winning
// rows in factor order.
func Tournament(comm *smpi.Comm, stack *mat.Matrix, rows []int, w int) (*mat.Matrix, []int, error) {
	local := lapack.Candidates{Rows: mat.New(0, 0)}
	if stack != nil {
		local = lapack.Candidates{Rows: stack, IDs: rows}
	}
	win, err := selectCands(local, w)
	if err != nil {
		return nil, nil, err
	}
	res := comm.Butterfly(encodeCands(win, w), func(mine, theirs smpi.Msg) smpi.Msg {
		next, err := selectCands(mergeCands(decodeCands(mine, w), decodeCands(theirs, w)), w)
		if err != nil {
			panic(err) // converted to a run error by the runtime
		}
		return encodeCands(next, w)
	})
	winners := decodeCands(res, w)
	if len(winners.IDs) < w {
		return nil, nil, fmt.Errorf("dist: only %d candidate rows for a %d-wide panel", len(winners.IDs), w)
	}
	return lapack.FactorA00(winners)
}

func selectCands(c lapack.Candidates, w int) (lapack.Candidates, error) {
	if c.Rows.Rows == 0 {
		return c, nil
	}
	return lapack.SelectCandidates(c, w)
}

func mergeCands(a, b lapack.Candidates) lapack.Candidates {
	if a.Rows.Rows == 0 {
		return b
	}
	if b.Rows.Rows == 0 {
		return a
	}
	return lapack.MergeCandidates(a, b)
}

// encodeCands packs a candidate set for the wire, metered at rows·w +
// len(IDs) elements (the paper's "exchange v×v blocks" plus pivot indices).
func encodeCands(c lapack.Candidates, w int) smpi.Msg {
	return smpi.Msg{F: c.Rows.Pack(), I: append([]int(nil), c.IDs...), N: c.Rows.Rows*w + len(c.IDs)}
}

func decodeCands(m smpi.Msg, w int) lapack.Candidates {
	block := mat.NewPhantom(len(m.I), w)
	if m.F != nil {
		block = mat.FromSlice(len(m.I), w, m.F)
	}
	return lapack.Candidates{Rows: block, IDs: m.I}
}

// SchurUpdate is the masked Schur-update tile loop. l holds the panel rows
// lrows (ascending global ids). For every local tile row ti >= from that
// holds at least one of them, kernel gets ti and MaskedTile(ti, l, lrows).
// The update is local arithmetic and sends nothing, so in volume mode it
// returns at once: no tile materializes and no phantom buffer is built.
func (s *Store) SchurUpdate(from int, l *mat.Matrix, lrows []int, kernel func(ti int, lt *mat.Matrix)) {
	if !s.payload {
		return
	}
	for _, ti := range s.bc.LocalTileRows(s.row, from) {
		if lt := s.MaskedTile(ti, l, lrows); lt != nil {
			kernel(ti, lt)
		}
	}
}

// MaskedTile gathers the rows of l (ids lrows, ascending) that fall in tile
// row ti into an h×l.Cols tile at their in-tile offsets, zeros elsewhere,
// so masked-out and retired rows take no update. It returns nil when none
// of lrows falls in ti. Numeric mode only.
func (s *Store) MaskedTile(ti int, l *mat.Matrix, lrows []int) *mat.Matrix {
	h, _ := s.bc.TileDims(ti, ti)
	lo := ti * s.bc.V
	a, b := sort.SearchInts(lrows, lo), sort.SearchInts(lrows, lo+h)
	if a == b {
		return nil
	}
	lt := mat.New(h, l.Cols)
	for i := a; i < b; i++ {
		copy(lt.Row(lrows[i]-lo), l.Row(i))
	}
	return lt
}

// UpdateLU applies the LU Schur update A[ti, seg] -= L·U through
// SchurUpdate: l holds the L10 rows lrows, u the w×seg.Total U01 panel.
func (s *Store) UpdateLU(from int, l *mat.Matrix, lrows []int, u *mat.Matrix, seg Segments) {
	if !s.payload {
		return
	}
	useg := make([]*mat.Matrix, len(seg.Tjs)) // U01 split by tile column, once per panel
	for k := range seg.Tjs {
		useg[k] = u.View(0, seg.Offs[k], u.Rows, seg.Widths[k])
	}
	s.SchurUpdate(from, l, lrows, func(ti int, lt *mat.Matrix) {
		for k, tj := range seg.Tjs {
			blas.Gemm(-1, lt, useg[k], 1, s.Tile(ti, tj))
		}
	})
}
