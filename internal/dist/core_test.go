package dist_test

import (
	"context"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/smpi"
)

// rescan is the brute-force reference for RowIndex.Rows: every active row r
// with tile r/v on grid row gr, ascending.
func rescan(active []bool, v, pr, gr int) []int {
	var out []int
	for r, on := range active {
		if on && (r/v)%pr == gr {
			out = append(out, r)
		}
	}
	return out
}

// checkIndex compares every grid row's list against the rescan.
func checkIndex(t *testing.T, x *dist.RowIndex, active []bool, v, pr int, label string) {
	t.Helper()
	for gr := 0; gr < pr; gr++ {
		if got, want := x.Rows(gr), rescan(active, v, pr, gr); !slices.Equal(got, want) {
			t.Fatalf("%s: grid row %d: index %v, rescan %v", label, gr, got, want)
		}
	}
}

// snapshot copies every grid row's current list, keeping the returned
// slices themselves alongside so later mutation of them is detectable.
func snapshot(x *dist.RowIndex, pr int) (lists, copies [][]int) {
	for gr := 0; gr < pr; gr++ {
		l := x.Rows(gr)
		lists = append(lists, l)
		copies = append(copies, slices.Clone(l))
	}
	return lists, copies
}

// TestRowIndexMatchesRescan drives random indexes through both retire
// patterns the engines use — CANDMC/Cholesky's prefix retire of the slots
// [t·v, t·v+w) and COnfLUX's scattered pivot retire — and checks every
// list against a brute-force rescan after every step. It also checks that
// the lists returned before a retire are untouched by it: engines hold a
// step's row list across that step's retire without copying it.
func TestRowIndexMatchesRescan(t *testing.T) {
	rng := mat.NewRNG(0x1D)
	for trial := 0; trial < 60; trial++ {
		n, v, pr := 1+rng.Intn(90), 1+rng.Intn(7), 1+rng.Intn(6)
		scattered := trial%2 == 1
		x := dist.NewRowIndex(n, v, pr)
		active := make([]bool, n)
		for i := range active {
			active[i] = true
		}
		checkIndex(t, x, active, v, pr, "fresh")
		for lo := 0; lo < n; lo += v {
			w := min(v, n-lo)
			var retire []int
			if scattered {
				// A random w-subset of the active rows, in random order.
				var live []int
				for r, on := range active {
					if on {
						live = append(live, r)
					}
				}
				for _, i := range rng.RandomPerm(len(live))[:w] {
					retire = append(retire, live[i])
				}
			} else {
				for r := lo; r < lo+w; r++ {
					retire = append(retire, r)
				}
			}
			lists, copies := snapshot(x, pr)
			x.Retire(retire)
			for _, r := range retire {
				active[r] = false
			}
			for gr := range lists {
				if !slices.Equal(lists[gr], copies[gr]) {
					t.Fatalf("n=%d v=%d pr=%d scattered=%v: retire mutated grid row %d's earlier list: %v, was %v",
						n, v, pr, scattered, gr, lists[gr], copies[gr])
				}
			}
			checkIndex(t, x, active, v, pr, "after retire")
		}
		for gr := 0; gr < pr; gr++ {
			if len(x.Rows(gr)) != 0 {
				t.Fatalf("n=%d v=%d pr=%d: grid row %d still lists %v after every row retired", n, v, pr, gr, x.Rows(gr))
			}
		}
	}
}

func TestRowIndexRetireTwicePanics(t *testing.T) {
	x := dist.NewRowIndex(8, 2, 2)
	x.Retire([]int{3})
	defer func() {
		if recover() == nil {
			t.Fatal("retiring row 3 twice did not panic")
		}
	}()
	x.Retire([]int{3})
}

// filledStore returns a numeric store whose every local tile entry encodes
// its global position, so packed values can be checked against their source.
func filledStore(bc grid.BlockCyclic, row, col int) *dist.Store {
	s := dist.NewStore(bc, row, col, 0, true)
	for _, ti := range bc.LocalTileRows(row, 0) {
		for _, tj := range bc.LocalTileCols(col, 0) {
			tile := s.Tile(ti, tj)
			for i := 0; i < tile.Rows; i++ {
				for j := 0; j < tile.Cols; j++ {
					tile.Set(i, j, float64(1000*(ti*bc.V+i)+tj*bc.V+j))
				}
			}
		}
	}
	return s
}

// TestPackUnpackRoundTrip packs rows across a row-segment layout and a
// single column, checks every packed entry against its tile, unpacks into a
// fresh store, and checks Zero clears exactly the given rows.
func TestPackUnpackRoundTrip(t *testing.T) {
	g := grid.Grid{Pr: 2, Pc: 3, Layers: 1, Total: 6}
	bc := grid.BlockCyclic{G: g, V: 3, N: 20} // ragged last tile
	row, col := 1, 2
	src := filledStore(bc, row, col)
	rows := []int{3, 5, 9, 16, 17} // tiles 1, 1, 3, 5, 5: grid row 1
	for _, seg := range []dist.Segments{src.SegmentsFrom(0), src.SegmentsFrom(3), src.Column(5)} {
		buf := src.Pack(seg, rows)
		if buf.Rows != len(rows) || buf.Cols != seg.Total {
			t.Fatalf("Pack shape %dx%d, want %dx%d", buf.Rows, buf.Cols, len(rows), seg.Total)
		}
		for i, r := range rows {
			for k, tj := range seg.Tjs {
				for j := 0; j < seg.Widths[k]; j++ {
					if got, want := buf.At(i, seg.Offs[k]+j), float64(1000*r+tj*bc.V+j); got != want {
						t.Fatalf("row %d tile col %d col %d: packed %v, want %v", r, tj, j, got, want)
					}
				}
			}
		}
		dst := dist.NewStore(bc, row, col, 0, true)
		dst.Unpack(seg, rows, buf)
		if back := dst.Pack(seg, rows); mat.MaxAbsDiff(back, buf) != 0 {
			t.Fatal("Pack∘Unpack is not the identity")
		}
		src2 := filledStore(bc, row, col)
		src2.Zero(seg, rows[:2])
		z := src2.Pack(seg, rows)
		for i := range rows {
			for j := 0; j < seg.Total; j++ {
				want := buf.At(i, j)
				if i < 2 {
					want = 0
				}
				if z.At(i, j) != want {
					t.Fatalf("Zero: row %d col %d is %v, want %v", rows[i], j, z.At(i, j), want)
				}
			}
		}
	}
}

// TestSchurUpdatePhantomTouchesNothing: in volume mode the update is local
// arithmetic only, so it must return without materializing a tile or
// calling the kernel.
func TestSchurUpdatePhantomTouchesNothing(t *testing.T) {
	g := grid.Grid{Pr: 2, Pc: 2, Layers: 1, Total: 4}
	bc := grid.BlockCyclic{G: g, V: 4, N: 30}
	s := dist.NewStore(bc, 0, 1, 0, false)
	rows := []int{1, 2, 9, 17, 24}
	l := s.NewBuffer(len(rows), 4)
	seg := s.SegmentsFrom(1)
	u := s.NewBuffer(4, seg.Total)
	before := s.Allocated()
	s.UpdateLU(0, l, rows, u, seg)
	s.SchurUpdate(0, l, rows, func(int, *mat.Matrix) { t.Fatal("kernel called in volume mode") })
	if got := s.Allocated(); got != before {
		t.Fatalf("phantom Schur update materialized %d tiles", got-before)
	}
}

// TestUpdateLUMatchesDense checks the masked update against a dense
// reference: only the listed rows of each local tile row take the update.
func TestUpdateLUMatchesDense(t *testing.T) {
	g := grid.Grid{Pr: 2, Pc: 1, Layers: 1, Total: 2}
	bc := grid.BlockCyclic{G: g, V: 3, N: 11}
	s := filledStore(bc, 0, 0)
	want := filledStore(bc, 0, 0)
	rows := []int{1, 7, 8} // tiles 0 and 2, on grid row 0
	w := 2
	l := mat.Random(len(rows), w, 5)
	seg := s.SegmentsFrom(1)
	u := mat.Random(w, seg.Total, 6)
	s.UpdateLU(0, l, rows, u, seg)
	for i, r := range rows {
		ti := r / bc.V
		for k, tj := range seg.Tjs {
			tile := want.Tile(ti, tj)
			for j := 0; j < seg.Widths[k]; j++ {
				acc := tile.At(r-ti*bc.V, j)
				for p := 0; p < w; p++ {
					acc += -1 * l.At(i, p) * u.At(p, seg.Offs[k]+j)
				}
				tile.Set(r-ti*bc.V, j, acc)
			}
		}
	}
	for _, ti := range bc.LocalTileRows(0, 0) {
		for _, tj := range seg.Tjs {
			if d := mat.MaxAbsDiff(s.Tile(ti, tj), want.Tile(ti, tj)); d > 1e-9 {
				t.Fatalf("tile (%d,%d) differs from the dense reference by %g", ti, tj, d)
			}
		}
	}
}

// TestReduceRowsSumsOntoLayerZero reduces two rows of a column over a
// three-layer fiber: layer 0 ends with the sums in its tiles and returns
// them, the other layers hand their contributions over and hold zeros.
func TestReduceRowsSumsOntoLayerZero(t *testing.T) {
	g := grid.Grid{Pr: 1, Pc: 1, Layers: 3, Total: 3}
	bc := grid.BlockCyclic{G: g, V: 2, N: 4}
	rows := []int{1, 2}
	_, err := smpi.Exec(context.Background(), smpi.Config{P: 3, Payload: true}, func(c *smpi.Comm) error {
		_, _, layer := g.Coords(c.Rank())
		s := dist.NewStore(bc, 0, 0, layer, true)
		col := s.Column(1)
		for _, r := range []int{0, 1, 2, 3} {
			s.Tile(r/2, 1).Set(r%2, 0, float64(layer+1))
		}
		stack := dist.ReduceRows(c, s, col, rows)
		got := s.Pack(col, []int{0, 1, 2, 3})
		for i := 0; i < 4; i++ {
			want := float64(layer + 1) // rows 0 and 3 are not reduced
			if i == 1 || i == 2 {
				want = 0
				if layer == 0 {
					want = 6
				}
			}
			if got.At(i, 0) != want {
				t.Errorf("layer %d row %d: %v, want %v", layer, i, got.At(i, 0), want)
			}
		}
		if (stack != nil) != (layer == 0) {
			t.Errorf("layer %d: stack returned = %v", layer, stack != nil)
		}
		if layer == 0 && (stack.At(0, 0) != 6 || stack.At(1, 0) != 6) {
			t.Errorf("layer 0 stack %v, want sums 6", stack.Data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
