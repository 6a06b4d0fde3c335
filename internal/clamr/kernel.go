package clamr

import (
	"math"

	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/precision"
)

// faceList is the SoA connectivity the face-centric kernel sweeps over.
// Each interior face appears exactly once, emitted by its finer (or
// left/bottom, at equal level) cell, so the face length is the emitter's
// transverse cell size. Boundary faces are kept separately.
type faceList[C precision.Real] struct {
	// Interior x-faces: xl is the cell on the -x side, xr on the +x side.
	xl, xr []int32
	xlen   []C
	// Interior y-faces: yb on the -y side, yt on the +y side.
	yb, yt []int32
	ylen   []C
	// Boundary faces (reflective walls), emitted cell by cell in ascending
	// cell order.
	bCell []int32
	bSide []mesh.Side
	bLen  []C
	// Per-cell inverse area at compute precision.
	invArea []C

	// The rest serves the multi-lane sweep only (built by rebuild when
	// gather is set, grow-only, outside the AllocTracker accounting).
	//
	// Per-face flux staging (h, hu, hv fluxes of one face side by side, so
	// a gather touches one cache line per face), premultiplied by the face
	// length: fluxes are computed in parallel (disjoint writes), then each
	// cell gathers its own.
	fx, fy [][3]C
	// Per-cell incidence lists in CSR form: cell i's x-faces are
	// xInc[xOff[i]:xOff[i+1]] and its y-faces yInc[yOff[i]:yOff[i+1]], each
	// entry face<<1 | 1 when i is on the face's + side (it gains the flux)
	// and face<<1 on the − side (it loses it). Entries are in ascending face
	// order, the order the serial kernel scatters in. Boundary faces are
	// already grouped by cell, so cell i's are bCell[bOff[i]:bOff[i+1]].
	xOff, yOff, bOff []int32
	xInc, yInc       []int32
	cursor           []int32 // CSR fill cursor
}

// rebuild re-enumerates every face of the mesh exactly once, appending into
// the list's existing backing arrays (resliced to zero length first), so a
// rebuild after an adaptation that did not grow the mesh allocates nothing.
// With gather set it also sizes the flux staging and builds the per-cell
// incidence lists the multi-lane sweep reads.
//
// Emission rule per cell i and neighbor n: Right/Top sides emit when
// level(i) ≥ level(n); Left/Bottom sides emit when level(i) > level(n).
// Same-level faces are emitted by the left/bottom cell; coarse–fine faces
// by the fine cell. Sides with no neighbor are domain boundary.
func (fl *faceList[C]) rebuild(m *mesh.Mesh, gather bool) {
	n := m.NumCells()
	fl.invArea = growSlice(fl.invArea, n)
	fl.xl, fl.xr, fl.xlen = fl.xl[:0], fl.xr[:0], fl.xlen[:0]
	fl.yb, fl.yt, fl.ylen = fl.yb[:0], fl.yt[:0], fl.ylen[:0]
	fl.bCell, fl.bSide, fl.bLen = fl.bCell[:0], fl.bSide[:0], fl.bLen[:0]
	for i := 0; i < n; i++ {
		fl.invArea[i] = C(1 / m.Area(i))
		c := m.Cell(i)
		dx, dy := m.CellSize(c.Level)
		nb := m.Neighbors(i)
		for side := mesh.Left; side <= mesh.Top; side++ {
			neighbors := nb.On(side)
			if len(neighbors) == 0 {
				fl.bCell = append(fl.bCell, int32(i))
				fl.bSide = append(fl.bSide, side)
				if side == mesh.Left || side == mesh.Right {
					fl.bLen = append(fl.bLen, C(dy))
				} else {
					fl.bLen = append(fl.bLen, C(dx))
				}
				continue
			}
			for _, nIdx := range neighbors {
				nLevel := m.Cell(int(nIdx)).Level
				switch side {
				case mesh.Right:
					if c.Level >= nLevel {
						fl.xl = append(fl.xl, int32(i))
						fl.xr = append(fl.xr, nIdx)
						fl.xlen = append(fl.xlen, C(dy))
					}
				case mesh.Left:
					if c.Level > nLevel {
						fl.xl = append(fl.xl, nIdx)
						fl.xr = append(fl.xr, int32(i))
						fl.xlen = append(fl.xlen, C(dy))
					}
				case mesh.Top:
					if c.Level >= nLevel {
						fl.yb = append(fl.yb, int32(i))
						fl.yt = append(fl.yt, nIdx)
						fl.ylen = append(fl.ylen, C(dx))
					}
				case mesh.Bottom:
					if c.Level > nLevel {
						fl.yb = append(fl.yb, nIdx)
						fl.yt = append(fl.yt, int32(i))
						fl.ylen = append(fl.ylen, C(dx))
					}
				}
			}
		}
	}
	if !gather {
		return
	}
	fl.fx, fl.fy = growSlice(fl.fx, len(fl.xl)), growSlice(fl.fy, len(fl.yb))
	fl.cursor = growSlice(fl.cursor, n)
	fl.xOff, fl.xInc = fl.incidence(fl.xOff, fl.xInc, fl.xl, fl.xr, n)
	fl.yOff, fl.yInc = fl.incidence(fl.yOff, fl.yInc, fl.yb, fl.yt, n)
	fl.bOff = growSlice(fl.bOff, n+1)
	clear(fl.bOff)
	for _, i := range fl.bCell {
		fl.bOff[i+1]++
	}
	for i := 1; i <= n; i++ {
		fl.bOff[i] += fl.bOff[i-1]
	}
}

// incidence builds the CSR lists of one face kind into off (n+1 offsets)
// and inc (two entries per face), reusing their backing arrays. Faces are
// placed in ascending order, so every cell's list is ascending too.
func (fl *faceList[C]) incidence(off, inc, minus, plus []int32, n int) ([]int32, []int32) {
	off = growSlice(off, n+1)
	inc = growSlice(inc, 2*len(minus))
	clear(off)
	for k := range minus {
		off[minus[k]+1]++
		off[plus[k]+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	cur := fl.cursor
	copy(cur, off[:n])
	for k := range minus {
		m, p := minus[k], plus[k]
		inc[cur[m]] = int32(k) << 1
		cur[m]++
		inc[cur[p]] = int32(k)<<1 | 1
		cur[p]++
	}
	return off, inc
}

// rusanovX computes the x-direction Rusanov numerical flux between left and
// right conserved states at compute precision. dry floors the velocity
// divisions: a subnormal-but-positive height cannot blow up hu/h, while any
// wet cell (h ≥ dry) divides by its exact height, so results on wet states
// are bit-identical to an unguarded kernel. Pressure terms always use the
// true height. dry = 0 disables the guard.
func rusanovX[C precision.Real](g, dry, hL, huL, hvL, hR, huR, hvR C) (fh, fhu, fhv C) {
	dL, dR := hL, hR
	if dL < dry {
		dL = dry
	}
	if dR < dry {
		dR = dry
	}
	uL := huL / dL
	vL := hvL / dL
	uR := huR / dR
	vR := hvR / dR
	cL := C(math.Sqrt(float64(g * hL)))
	cR := C(math.Sqrt(float64(g * hR)))
	s := absC(uL) + cL
	if sr := absC(uR) + cR; sr > s {
		s = sr
	}
	half := C(0.5)
	pL := half * g * hL * hL
	pR := half * g * hR * hR
	fh = half*(huL+huR) - half*s*(hR-hL)
	fhu = half*(huL*uL+pL+huR*uR+pR) - half*s*(huR-huL)
	fhv = half*(huL*vL+huR*vR) - half*s*(hvR-hvL)
	return fh, fhu, fhv
}

// rusanovY is the y-direction counterpart of rusanovX (same dry floor).
func rusanovY[C precision.Real](g, dry, hB, huB, hvB, hT, huT, hvT C) (fh, fhu, fhv C) {
	dB, dT := hB, hT
	if dB < dry {
		dB = dry
	}
	if dT < dry {
		dT = dry
	}
	uB := huB / dB
	vB := hvB / dB
	uT := huT / dT
	vT := hvT / dT
	cB := C(math.Sqrt(float64(g * hB)))
	cT := C(math.Sqrt(float64(g * hT)))
	s := absC(vB) + cB
	if st := absC(vT) + cT; st > s {
		s = st
	}
	half := C(0.5)
	pB := half * g * hB * hB
	pT := half * g * hT * hT
	fh = half*(hvB+hvT) - half*s*(hT-hB)
	fhu = half*(hvB*uB+hvT*uT) - half*s*(huT-huB)
	fhv = half*(hvB*vB+pB+hvT*vT+pT) - half*s*(hvT-hvB)
	return fh, fhu, fhv
}

// wallFluxX is the reflective-wall x-flux for a cell state: only the
// momentum (pressure + dissipation) component is nonzero, so walls conserve
// mass exactly. n is the outward normal (+1 right wall, -1 left wall); the
// Rusanov dissipation term flips sign with it because the mirrored ghost
// sits on opposite sides.
func wallFluxX[C precision.Real](g, dry, h, hu, n C) (fhu C) {
	d := h
	if d < dry {
		d = dry
	}
	u := hu / d
	c := C(math.Sqrt(float64(g * h)))
	s := absC(u) + c
	return hu*u + C(0.5)*g*h*h + n*s*hu
}

// wallFluxY is the reflective-wall y-flux; n is the outward normal
// (+1 top wall, -1 bottom wall).
func wallFluxY[C precision.Real](g, dry, h, hv, n C) (fhv C) {
	d := h
	if d < dry {
		d = dry
	}
	v := hv / d
	c := C(math.Sqrt(float64(g * h)))
	s := absC(v) + c
	return hv*v + C(0.5)*g*h*h + n*s*hv
}

// Analytic per-sweep operation counts for the instrumentation (see package
// metrics): flop tallies of the flux/update expressions above.
const (
	flopsPerInteriorFlux = 30 // divides, abs/max, blending — sqrt counted separately
	flopsPerWallFlux     = 8
	flopsPerCellUpdate   = 9
	sqrtPerInteriorFlux  = 2
	sqrtPerWallFlux      = 1
)

// finiteDiffFace is the "vectorized" finite-difference sweep: face-centric,
// SoA gathers, one flux evaluation per face, unrolled by 4. This is the
// profile the paper obtains by adding SIMD pragmas to CLAMR's finite_diff
// loop.
func (s *Solver[S, C]) finiteDiffFace(dt C) {
	if s.cfg.Workers > 1 {
		s.finiteDiffFaceParallel(dt)
		return
	}
	g := C(s.cfg.Gravity)
	dry := s.dry
	fl := &s.faces
	n := s.mesh.NumCells()
	for i := 0; i < n; i++ {
		s.dh[i], s.dhu[i], s.dhv[i] = 0, 0, 0
	}

	// Interior x-faces, unrolled by 4 with bounds hints.
	xi := 0
	for ; xi+4 <= len(fl.xl); xi += 4 {
		for k := xi; k < xi+4; k++ {
			l, r := fl.xl[k], fl.xr[k]
			fh, fhu, fhv := rusanovX(g, dry, C(s.h[l]), C(s.hu[l]), C(s.hv[l]), C(s.h[r]), C(s.hu[r]), C(s.hv[r]))
			w := fl.xlen[k]
			s.dh[l] -= S(fh * w)
			s.dhu[l] -= S(fhu * w)
			s.dhv[l] -= S(fhv * w)
			s.dh[r] += S(fh * w)
			s.dhu[r] += S(fhu * w)
			s.dhv[r] += S(fhv * w)
		}
	}
	for ; xi < len(fl.xl); xi++ {
		l, r := fl.xl[xi], fl.xr[xi]
		fh, fhu, fhv := rusanovX(g, dry, C(s.h[l]), C(s.hu[l]), C(s.hv[l]), C(s.h[r]), C(s.hu[r]), C(s.hv[r]))
		w := fl.xlen[xi]
		s.dh[l] -= S(fh * w)
		s.dhu[l] -= S(fhu * w)
		s.dhv[l] -= S(fhv * w)
		s.dh[r] += S(fh * w)
		s.dhu[r] += S(fhu * w)
		s.dhv[r] += S(fhv * w)
	}

	// Interior y-faces.
	yi := 0
	for ; yi+4 <= len(fl.yb); yi += 4 {
		for k := yi; k < yi+4; k++ {
			b, tp := fl.yb[k], fl.yt[k]
			fh, fhu, fhv := rusanovY(g, dry, C(s.h[b]), C(s.hu[b]), C(s.hv[b]), C(s.h[tp]), C(s.hu[tp]), C(s.hv[tp]))
			w := fl.ylen[k]
			s.dh[b] -= S(fh * w)
			s.dhu[b] -= S(fhu * w)
			s.dhv[b] -= S(fhv * w)
			s.dh[tp] += S(fh * w)
			s.dhu[tp] += S(fhu * w)
			s.dhv[tp] += S(fhv * w)
		}
	}
	for ; yi < len(fl.yb); yi++ {
		b, tp := fl.yb[yi], fl.yt[yi]
		fh, fhu, fhv := rusanovY(g, dry, C(s.h[b]), C(s.hu[b]), C(s.hv[b]), C(s.h[tp]), C(s.hu[tp]), C(s.hv[tp]))
		w := fl.ylen[yi]
		s.dh[b] -= S(fh * w)
		s.dhu[b] -= S(fhu * w)
		s.dhv[b] -= S(fhv * w)
		s.dh[tp] += S(fh * w)
		s.dhu[tp] += S(fhu * w)
		s.dhv[tp] += S(fhv * w)
	}

	// Boundary faces.
	for k := range fl.bCell {
		i := fl.bCell[k]
		w := fl.bLen[k]
		switch fl.bSide[k] {
		case mesh.Left:
			s.dhu[i] += S(wallFluxX(g, dry, C(s.h[i]), C(s.hu[i]), -1) * w)
		case mesh.Right:
			s.dhu[i] -= S(wallFluxX(g, dry, C(s.h[i]), C(s.hu[i]), 1) * w)
		case mesh.Bottom:
			s.dhv[i] += S(wallFluxY(g, dry, C(s.h[i]), C(s.hv[i]), -1) * w)
		case mesh.Top:
			s.dhv[i] -= S(wallFluxY(g, dry, C(s.h[i]), C(s.hv[i]), 1) * w)
		}
	}

	// Update pass.
	for i := 0; i < n; i++ {
		coef := dt * fl.invArea[i]
		s.h[i] = S(C(s.h[i]) + coef*C(s.dh[i]))
		s.hu[i] = S(C(s.hu[i]) + coef*C(s.dhu[i]))
		s.hv[i] = S(C(s.hv[i]) + coef*C(s.dhv[i]))
	}

	s.accountSweep(uint64(len(fl.xl)+len(fl.yb)), uint64(len(fl.bCell)), uint64(n), 1)
}

// finiteDiffFaceParallel is the multi-lane variant of the face-centric
// sweep. Two pooled passes evaluate every face flux once into the staging
// arrays (disjoint writes); a third gathers per cell: each cell sums its
// staged fluxes through its incidence lists, adds its wall fluxes and
// updates its state. A cell's lists hold its faces in the serial kernel's
// scatter order, so every cell receives the same rounded adds in the same
// order as finiteDiffFace and the result is bit-identical at any lane
// count. All passes dispatch prebound kernels on the persistent pool, so
// the sweep allocates nothing at steady state.
func (s *Solver[S, C]) finiteDiffFaceParallel(dt C) {
	fl := &s.faces
	workers := s.cfg.Workers
	n := s.mesh.NumCells()
	s.curDT = dt

	s.pool.ForN(workers, len(fl.xl), s.parFluxX)
	s.pool.ForN(workers, len(fl.yb), s.parFluxY)
	s.pool.ForN(workers, n, s.parGather)

	s.accountSweep(uint64(len(fl.xl)+len(fl.yb)), uint64(len(fl.bCell)), uint64(n), 1)
}

// finiteDiffCell is the "unvectorized" cell-centric sweep: every cell
// gathers its neighbors through the adjacency cache and evaluates its own
// face fluxes, so each interior flux is computed twice — the scalar profile
// of CLAMR's original finite_diff loop.
func (s *Solver[S, C]) finiteDiffCell(dt C) {
	n := s.mesh.NumCells()
	s.curDT = dt
	s.pool.ForN(s.cfg.Workers, n, s.parCell)
	s.pool.ForN(s.cfg.Workers, n, s.parUpdate)

	// Cell-centric recomputes each interior flux from both sides.
	s.accountSweep(2*uint64(len(s.faces.xl)+len(s.faces.yb)), uint64(len(s.faces.bCell)), uint64(n), 1)
}

// cellRHS gathers cell i's neighbors and accumulates its full RHS —
// writes only index i, so cells sweep in parallel safely.
func (s *Solver[S, C]) cellRHS(m *mesh.Mesh, g C, i int) {
	{
		c := m.Cell(i)
		dx, dy := m.CellSize(c.Level)
		nb := m.Neighbors(i)
		dry := s.dry
		hi := C(s.h[i])
		hui := C(s.hu[i])
		hvi := C(s.hv[i])
		var dh, dhu, dhv C

		faceLen := func(nIdx int32, transverse float64) C {
			nLevel := m.Cell(int(nIdx)).Level
			if nLevel > c.Level {
				return C(transverse / 2)
			}
			return C(transverse)
		}

		if ns := nb.On(mesh.Left); len(ns) == 0 {
			dhu += wallFluxX(g, dry, hi, hui, -1) * C(dy)
		} else {
			for _, nIdx := range ns {
				w := faceLen(nIdx, dy)
				fh, fhu, fhv := rusanovX(g, dry, C(s.h[nIdx]), C(s.hu[nIdx]), C(s.hv[nIdx]), hi, hui, hvi)
				dh += fh * w
				dhu += fhu * w
				dhv += fhv * w
			}
		}
		if ns := nb.On(mesh.Right); len(ns) == 0 {
			dhu -= wallFluxX(g, dry, hi, hui, 1) * C(dy)
		} else {
			for _, nIdx := range ns {
				w := faceLen(nIdx, dy)
				fh, fhu, fhv := rusanovX(g, dry, hi, hui, hvi, C(s.h[nIdx]), C(s.hu[nIdx]), C(s.hv[nIdx]))
				dh -= fh * w
				dhu -= fhu * w
				dhv -= fhv * w
			}
		}
		if ns := nb.On(mesh.Bottom); len(ns) == 0 {
			dhv += wallFluxY(g, dry, hi, hvi, -1) * C(dx)
		} else {
			for _, nIdx := range ns {
				w := faceLen(nIdx, dx)
				fh, fhu, fhv := rusanovY(g, dry, C(s.h[nIdx]), C(s.hu[nIdx]), C(s.hv[nIdx]), hi, hui, hvi)
				dh += fh * w
				dhu += fhu * w
				dhv += fhv * w
			}
		}
		if ns := nb.On(mesh.Top); len(ns) == 0 {
			dhv -= wallFluxY(g, dry, hi, hvi, 1) * C(dx)
		} else {
			for _, nIdx := range ns {
				w := faceLen(nIdx, dx)
				fh, fhu, fhv := rusanovY(g, dry, hi, hui, hvi, C(s.h[nIdx]), C(s.hu[nIdx]), C(s.hv[nIdx]))
				dh -= fh * w
				dhu -= fhu * w
				dhv -= fhv * w
			}
		}

		s.dh[i], s.dhu[i], s.dhv[i] = S(dh), S(dhu), S(dhv)
	}
}

// accountSweep records the analytic tally of one finite-difference sweep.
func (s *Solver[S, C]) accountSweep(fluxEvals, wallEvals, cells, launches uint64) {
	sw := uint64(unsafeSizeofS[S]())
	var cv C
	cw := uint64(unsafeSizeof(cv))
	s.addFlops(fluxEvals*flopsPerInteriorFlux+wallEvals*flopsPerWallFlux+cells*flopsPerCellUpdate, 0)
	s.addTranscendental(fluxEvals*sqrtPerInteriorFlux + wallEvals*sqrtPerWallFlux)
	_ = cw
	s.counters.Add(metrics.Counters{
		LoadBytes:      fluxEvals*6*sw + wallEvals*2*sw + cells*3*sw,
		StoreBytes:     cells * 6 * sw,
		KernelLaunches: launches,
	})
	s.addConversions(fluxEvals*6 + wallEvals*2 + cells*6)
}
