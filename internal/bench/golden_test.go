package bench

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/blas"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/mat"
	"repro/internal/smpi"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// goldenCell is one (engine, N, P) point of the schedule fingerprint. The
// cells mix power-of-two and awkward rank counts, and every 2.5D engine
// reaches c > 1 at P=8 and P=27 under the maximum-replication memory.
type goldenCell struct {
	algo costmodel.Algorithm
	n, p int
}

// goldenVolume pins each engine's volume-mode schedule: the hash covers
// per-phase bytes and messages and the bit pattern of the simulated
// makespan (see volumeFingerprint). Any change to who sends what, when,
// under which phase label shows up here.
var goldenVolume = map[goldenCell]string{
	{costmodel.COnfLUX, 96, 8}:    "235b85ebefad27c325dbbb87",
	{costmodel.COnfLUX, 100, 11}:  "b6be86ca380aa5392030d6aa",
	{costmodel.COnfLUX, 128, 27}:  "84ac61601fd8d6329a7962e4",
	{costmodel.CANDMC, 96, 8}:     "98288e02c81b07940fef0a50",
	{costmodel.CANDMC, 100, 11}:   "4d0e1bfa21c97a6c47647821",
	{costmodel.CANDMC, 128, 27}:   "8201c681e63fadfbbe893f87",
	{costmodel.LibSci, 96, 8}:     "0aeee308b90865cd215056c1",
	{costmodel.LibSci, 100, 11}:   "65ba2f2fa4d158624e4c4ef0",
	{costmodel.LibSci, 128, 27}:   "de90f8e79a833f8f9b23fa66",
	{costmodel.SLATE, 96, 8}:      "647bd69531db5c2b3c1dd423",
	{costmodel.SLATE, 100, 11}:    "9611ddecb5fa4b21be5d3dd1",
	{costmodel.SLATE, 128, 27}:    "23dc321932e3dd731617008b",
	{costmodel.Cholesky, 96, 8}:   "84e3eeb62a347b8acad2ac73",
	{costmodel.Cholesky, 100, 11}: "a64423603582a456fb07f3f5",
	{costmodel.Cholesky, 128, 27}: "f89b0bd6d54c8c93b258bc3e",
}

// goldenNumeric pins each engine's numeric output: a hash of the gathered
// factor's float64 bit patterns plus the pivot permutation. The cells are
// small enough that every GEMM stays on the straight-loop kernel, whose
// results do not depend on the host's SIMD support.
var goldenNumeric = map[goldenCell]string{
	{costmodel.COnfLUX, 48, 8}:   "0ae021853e30ec54fbd1660c",
	{costmodel.COnfLUX, 50, 11}:  "7ab3d3b5445363e0bf3470e9",
	{costmodel.COnfLUX, 60, 27}:  "8f66a54582c34b06fef50b4b",
	{costmodel.CANDMC, 48, 8}:    "c37882ae2276a2d9c8bce624",
	{costmodel.CANDMC, 50, 11}:   "b6db5992aa4c7cb797bbaf65",
	{costmodel.CANDMC, 60, 27}:   "a98073a12da361c3a326c4e0",
	{costmodel.LibSci, 48, 8}:    "a5aee5f23acd8805c56b261b",
	{costmodel.LibSci, 50, 11}:   "7681a85461a27c0f9ce85b86",
	{costmodel.LibSci, 60, 27}:   "9a67622e3d5c386ce271936f",
	{costmodel.SLATE, 48, 8}:     "a5aee5f23acd8805c56b261b",
	{costmodel.SLATE, 50, 11}:    "7681a85461a27c0f9ce85b86",
	{costmodel.SLATE, 60, 27}:    "9a67622e3d5c386ce271936f",
	{costmodel.Cholesky, 48, 8}:  "55046239a2d8dcbfdf2d85f4",
	{costmodel.Cholesky, 50, 11}: "d40cdc02855f7faf5449faaf",
	{costmodel.Cholesky, 60, 27}: "81cdf66e20fc9dadb40e86bb",
}

func sortedCells(m map[goldenCell]string) []goldenCell {
	cells := make([]goldenCell, 0, len(m))
	for c := range m {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.algo != b.algo {
			return a.algo < b.algo
		}
		return a.n < b.n
	})
	return cells
}

// volumeFingerprint renders a report's per-phase bytes/msgs (sorted by
// phase) and makespan bits as text, and returns it with its SHA-256.
func volumeFingerprint(rep *trace.Report) (string, string) {
	phases := make([]string, 0, len(rep.ByPhase))
	for ph := range rep.ByPhase {
		phases = append(phases, ph)
	}
	sort.Strings(phases)
	var b strings.Builder
	for _, ph := range phases {
		fmt.Fprintf(&b, "%s %d %d\n", ph, rep.ByPhase[ph], rep.PhaseMsgs[ph])
	}
	fmt.Fprintf(&b, "makespan %016x\n", math.Float64bits(rep.Time.Makespan))
	sum := sha256.Sum256([]byte(b.String()))
	return b.String(), fmt.Sprintf("%x", sum[:12])
}

func numericFingerprint(f *mat.Matrix, perm []int) string {
	h := sha256.New()
	var buf [8]byte
	for i := 0; i < f.Rows; i++ {
		for _, x := range f.Row(i) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	for _, p := range perm {
		binary.LittleEndian.PutUint64(buf[:], uint64(p))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// TestGoldenScheduleFingerprint pins every engine's volume-mode schedule
// across commits. A refactor that claims byte-identical behaviour must
// leave every hash unchanged; a deliberate schedule change updates the
// constants in the same commit and says why.
func TestGoldenScheduleFingerprint(t *testing.T) {
	for _, cell := range sortedCells(goldenVolume) {
		eng, err := engine.Lookup(cell.algo)
		if err != nil {
			t.Fatal(err)
		}
		cfg := engine.Config{Ranks: cell.p, NB: LibSciNB}
		rep, err := smpi.Exec(context.Background(), smpi.Config{P: cell.p}, func(c *smpi.Comm) error {
			_, _, err := eng.Run(c, nil, cell.n, cfg)
			return err
		})
		if err != nil {
			t.Fatalf("%s N=%d P=%d: %v", cell.algo, cell.n, cell.p, err)
		}
		text, got := volumeFingerprint(rep)
		if want := goldenVolume[cell]; got != want {
			t.Errorf("%s N=%d P=%d (grid %s): volume fingerprint %s, want %s; schedule:\n%s",
				cell.algo, cell.n, cell.p, engine.GridDesc(eng, cell.n, cfg), got, want, text)
		}
	}
}

// TestGoldenNumericFingerprint pins every engine's numeric factors and
// pivot order bit for bit. Go fuses multiply-adds on some architectures,
// so the constants hold on amd64 only.
func TestGoldenNumericFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("numeric fingerprints are recorded on amd64, not %s", runtime.GOARCH)
	}
	for _, cell := range sortedCells(goldenNumeric) {
		eng, err := engine.Lookup(cell.algo)
		if err != nil {
			t.Fatal(err)
		}
		in := mat.Random(cell.n, cell.n, 7)
		if cell.algo == costmodel.Cholesky {
			in = testutil.SPD(cell.n, 7)
		}
		cfg := engine.Config{Ranks: cell.p, NB: LibSciNB}
		var (
			mu   sync.Mutex
			f    *mat.Matrix
			perm []int
		)
		_, err = smpi.Exec(context.Background(), smpi.Config{P: cell.p, Payload: true}, func(c *smpi.Comm) error {
			var a *mat.Matrix
			if c.WorldRank() == 0 {
				a = in.Clone()
			}
			out, pm, err := eng.Run(c, a, cell.n, cfg)
			if c.WorldRank() == 0 {
				mu.Lock()
				f, perm = out, pm
				mu.Unlock()
			}
			return err
		})
		if err != nil {
			t.Fatalf("%s N=%d P=%d: %v", cell.algo, cell.n, cell.p, err)
		}
		if got, want := numericFingerprint(f, perm), goldenNumeric[cell]; got != want {
			t.Errorf("%s N=%d P=%d: numeric fingerprint %s, want %s (kernel %s)",
				cell.algo, cell.n, cell.p, got, want, blas.KernelISA())
		}
	}
}
