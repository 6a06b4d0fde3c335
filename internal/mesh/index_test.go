package mesh

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// refNeighbors is the reference model for neighbor resolution: a map of
// leaves, and for every face a walk over the finest-level units just
// outside it, each resolved to the leaf that contains it by searching the
// map from the finest level up. Consecutive distinct leaves along the face
// are its neighbors, in increasing j (Left/Right) or i (Bottom/Top).
func refNeighbors(t *testing.T, m *Mesh) []Neighbors {
	t.Helper()
	leaves := make(map[Cell]int32, m.NumCells())
	for idx, c := range m.Cells() {
		leaves[c] = int32(idx)
	}
	top := m.MaxLevel()
	cnx, cny := m.CoarseSize()
	fnx, fny := int32(cnx)<<top, int32(cny)<<top
	containing := func(fi, fj int32) int32 {
		if fi < 0 || fj < 0 || fi >= fnx || fj >= fny {
			return -1
		}
		for l := top; l >= 0; l-- {
			shift := uint(top - l)
			if idx, ok := leaves[Cell{fi >> shift, fj >> shift, int8(l)}]; ok {
				return idx
			}
		}
		t.Fatalf("finest unit (%d,%d) is covered by no leaf", fi, fj)
		return -1
	}
	out := make([]Neighbors, m.NumCells())
	for idx, c := range m.Cells() {
		s := int32(1) << uint(top-int(c.Level))
		i0, j0 := c.I*s, c.J*s
		for side := Left; side <= Top; side++ {
			var seen []int32
			for k := int32(0); k < s; k++ {
				var n int32
				switch side {
				case Left:
					n = containing(i0-1, j0+k)
				case Right:
					n = containing(i0+s, j0+k)
				case Bottom:
					n = containing(i0+k, j0-1)
				case Top:
					n = containing(i0+k, j0+s)
				}
				if n >= 0 && (len(seen) == 0 || seen[len(seen)-1] != n) {
					seen = append(seen, n)
				}
			}
			if len(seen) > 2 {
				t.Fatalf("cell %d (%+v) side %d touches %d leaves (balance violated)", idx, c, side, len(seen))
			}
			out[idx].Counts[side] = int8(len(seen))
			copy(out[idx].Cells[side][:], seen)
		}
	}
	return out
}

// TestNeighborsMatchReferenceModel drives seeded random adapt sequences at
// several lane counts and checks every cell's cached neighbors against the
// reference model, and the cell order against the single-lane mesh.
func TestNeighborsMatchReferenceModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		var serial [][]Cell
		for _, workers := range []int{1, 2, 3, 7} {
			m := mustMesh(t, 6, 5, 3)
			m.SetWorkers(workers)
			rng := rand.New(rand.NewSource(seed))
			for round := 0; round < 12; round++ {
				flags := make([]RefineFlag, m.NumCells())
				for i := range flags {
					switch r := rng.Float64(); {
					case r < 0.25:
						flags[i] = Refine
					case r < 0.6:
						flags[i] = Coarsen
					}
				}
				if _, err := m.Adapt(flags); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("seed %d workers %d round %d", seed, workers, round)
				validate(t, m, name)
				ref := refNeighbors(t, m)
				for idx := range ref {
					if got := *m.Neighbors(idx); got != ref[idx] {
						t.Fatalf("%s: cell %d (%+v) neighbors %+v, reference %+v", name, idx, m.Cell(idx), got, ref[idx])
					}
				}
				if workers == 1 {
					serial = append(serial, slices.Clone(m.Cells()))
				} else if !slices.Equal(m.Cells(), serial[round]) {
					t.Fatalf("%s: cell order differs from the single-lane mesh", name)
				}
			}
		}
	}
}

// TestSparseDeepMeshIndexStaysSmall refines one corner of a 2×2 mesh down
// to level 12, where the finest grid has 2^26 units: the index must stay
// proportional to the few dozen leaves.
func TestSparseDeepMeshIndexStaysSmall(t *testing.T) {
	m := mustMesh(t, 2, 2, 12)
	for l := int8(0); l < 12; l++ {
		flags := make([]RefineFlag, m.NumCells())
		flags[m.Lookup(0, 0, l)] = Refine
		if _, err := m.Adapt(flags); err != nil {
			t.Fatal(err)
		}
	}
	validate(t, m, "deep corner")
	if m.MaxActiveLevel() != 12 {
		t.Fatalf("max active level %d, want 12", m.MaxActiveLevel())
	}
	n := m.NumCells()
	if slots := len(m.index.keys); slots > max(16, 4*n) {
		t.Errorf("index holds %d slots for %d cells", slots, n)
	}
	if refs := refNeighbors(t, m); !slices.Equal(refs, m.nbrs) {
		t.Error("deep-mesh neighbors differ from the reference model")
	}
}

func TestFromCellsRejectsDuplicateLeaf(t *testing.T) {
	m := mustMesh(t, 3, 3, 1)
	cells := append(slices.Clone(m.Cells()), m.Cell(4))
	_, err := FromCells(3, 3, 1, UnitBounds, cells, 2)
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicated leaf: got %v, want a duplicate-leaves error", err)
	}
}

// adaptCycle builds an nx×nx mesh with a level-1 disc of radius 0.3 and
// returns it with a cycle that refines the level-1 cells inside radius 0.2
// to level 2 and coarsens them back, restoring the mesh exactly.
func adaptCycle(tb testing.TB, nx, workers int) (*Mesh, func()) {
	tb.Helper()
	m, err := New(nx, nx, 2, UnitBounds)
	if err != nil {
		tb.Fatal(err)
	}
	m.SetWorkers(workers)
	inDisc := func(idx int, r float64) bool {
		x, y := m.Center(idx)
		return math.Hypot(x-0.5, y-0.5) < r
	}
	flags := make([]RefineFlag, m.NumCells())
	for i := range flags {
		if inDisc(i, 0.3) {
			flags[i] = Refine
		}
	}
	if _, err := m.Adapt(flags); err != nil {
		tb.Fatal(err)
	}
	refine := make([]RefineFlag, m.NumCells())
	for i := range refine {
		if m.Cell(i).Level == 1 && inDisc(i, 0.2) {
			refine[i] = Refine
		}
	}
	if _, err := m.Adapt(refine); err != nil {
		tb.Fatal(err)
	}
	coarsen := make([]RefineFlag, m.NumCells())
	for i := range coarsen {
		if m.Cell(i).Level == 2 {
			coarsen[i] = Coarsen
		}
	}
	if _, err := m.Adapt(coarsen); err != nil {
		tb.Fatal(err)
	}
	cycle := func() {
		if _, err := m.Adapt(refine); err != nil {
			tb.Fatal(err)
		}
		if _, err := m.Adapt(coarsen); err != nil {
			tb.Fatal(err)
		}
	}
	return m, cycle
}

// TestAdaptZeroAlloc: once its scratch has grown, a refine-then-coarsen
// Adapt cycle allocates nothing, serial and pooled, and restores the mesh.
func TestAdaptZeroAlloc(t *testing.T) {
	for _, workers := range []int{1, 2} {
		m, cycle := adaptCycle(t, 32, workers)
		before := slices.Clone(m.Cells())
		if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
			t.Errorf("workers=%d: adapt cycle allocated %v objects", workers, allocs)
		}
		if !slices.Equal(m.Cells(), before) {
			t.Fatalf("workers=%d: refine/coarsen cycle did not restore the mesh", workers)
		}
		validate(t, m, "after cycles")
	}
}

// BenchmarkMeshAdapt times one steady-state refine↔coarsen cycle (two
// Adapts) on a ladder-sized mesh: 192² coarse cells, 68k leaves growing to
// 124k and back. allocs/op is the zero-allocation acceptance number.
func BenchmarkMeshAdapt(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			_, cycle := adaptCycle(b, 192, workers)
			cycle()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}
