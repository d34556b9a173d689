// Package simapp provides the simulation application of the paper's
// checkpoint-restart experiment (Section V-B): a Gray–Scott reaction-
// diffusion solver — the canonical "common reaction-diffusion benchmark" —
// with real numerics for the examples and tests, plus a virtual-scale
// profile that maps the solver onto the hpcsim cluster at Summit scale
// (4096 ranks / 128 nodes / 1 TB per step) without writing terabytes.
package simapp

import (
	"fmt"
	"math"
	"sync"

	"fairflow/internal/expt"
)

// GrayScottConfig parameterises the real solver.
type GrayScottConfig struct {
	// N is the grid edge length (N×N cells, periodic boundary).
	N int
	// Du, Dv are diffusion rates; F is the feed rate; K the kill rate.
	Du, Dv, F, K float64
	// Dt is the time step.
	Dt float64
	// Workers is the number of domain-decomposition strips (≤0 = 1).
	Workers int
	// Seed perturbs the initial condition.
	Seed int64
}

// DefaultGrayScott returns the classic "coral growth" parameter set.
func DefaultGrayScott(n int, seed int64) GrayScottConfig {
	return GrayScottConfig{N: n, Du: 0.16, Dv: 0.08, F: 0.060, K: 0.062, Dt: 1.0, Workers: 4, Seed: seed}
}

// GrayScott is a running reaction-diffusion simulation over two chemical
// fields U and V.
type GrayScott struct {
	cfg    GrayScottConfig
	u, v   []float64
	un, vn []float64
	step   int
}

// NewGrayScott initialises the fields: U=1, V=0 everywhere except a
// perturbed central square seeded with V.
func NewGrayScott(cfg GrayScottConfig) (*GrayScott, error) {
	if cfg.N < 8 {
		return nil, fmt.Errorf("simapp: grid must be ≥8, got %d", cfg.N)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Workers > cfg.N/2 {
		cfg.Workers = cfg.N / 2
	}
	g := &GrayScott{
		cfg: cfg,
		u:   make([]float64, cfg.N*cfg.N),
		v:   make([]float64, cfg.N*cfg.N),
		un:  make([]float64, cfg.N*cfg.N),
		vn:  make([]float64, cfg.N*cfg.N),
	}
	for i := range g.u {
		g.u[i] = 1
	}
	rng := expt.NewRNG(cfg.Seed)
	lo, hi := cfg.N/2-cfg.N/16, cfg.N/2+cfg.N/16
	for y := lo; y < hi; y++ {
		for x := lo; x < hi; x++ {
			i := y*cfg.N + x
			g.u[i] = 0.50 + 0.02*rng.Float64()
			g.v[i] = 0.25 + 0.02*rng.Float64()
		}
	}
	return g, nil
}

// Step advances the simulation one time step, decomposing rows across
// workers.
func (g *GrayScott) Step() {
	n := g.cfg.N
	workers := g.cfg.Workers
	rowsPer := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		y0 := w * rowsPer
		y1 := y0 + rowsPer
		if y1 > n {
			y1 = n
		}
		if y0 >= y1 {
			continue
		}
		wg.Add(1)
		go func(y0, y1 int) {
			defer wg.Done()
			g.stepRows(y0, y1)
		}(y0, y1)
	}
	wg.Wait()
	g.u, g.un = g.un, g.u
	g.v, g.vn = g.vn, g.v
	g.step++
}

func (g *GrayScott) stepRows(y0, y1 int) {
	n := g.cfg.N
	cfg := g.cfg
	for y := y0; y < y1; y++ {
		ym := (y - 1 + n) % n
		yp := (y + 1) % n
		for x := 0; x < n; x++ {
			xm := (x - 1 + n) % n
			xp := (x + 1) % n
			i := y*n + x
			u := g.u[i]
			v := g.v[i]
			lapU := g.u[ym*n+x] + g.u[yp*n+x] + g.u[y*n+xm] + g.u[y*n+xp] - 4*u
			lapV := g.v[ym*n+x] + g.v[yp*n+x] + g.v[y*n+xm] + g.v[y*n+xp] - 4*v
			uvv := u * v * v
			g.un[i] = u + cfg.Dt*(cfg.Du*lapU-uvv+cfg.F*(1-u))
			g.vn[i] = v + cfg.Dt*(cfg.Dv*lapV+uvv-(cfg.F+cfg.K)*v)
		}
	}
}

// Mass returns the total V mass, a conserved-ish diagnostic used in tests.
func (g *GrayScott) Mass() float64 {
	var m float64
	for _, v := range g.v {
		m += v
	}
	return m
}

// Checksum returns a deterministic field digest: the sum of U and V weighted
// by position, useful for restart-equivalence tests.
func (g *GrayScott) Checksum() float64 {
	var s float64
	for i := range g.u {
		w := float64(i%97) + 1
		s += g.u[i]*w + g.v[i]/w
	}
	return s
}

// Snapshot captures the full state for checkpoint/restart.
type Snapshot struct {
	Step int
	U, V []float64
}

// Snapshot returns a deep copy of the current state.
func (g *GrayScott) Snapshot() Snapshot {
	return Snapshot{
		Step: g.step,
		U:    append([]float64(nil), g.u...),
		V:    append([]float64(nil), g.v...),
	}
}

// Restore resets the simulation to a snapshot.
func (g *GrayScott) Restore(s Snapshot) error {
	if len(s.U) != len(g.u) || len(s.V) != len(g.v) {
		return fmt.Errorf("simapp: snapshot size mismatch")
	}
	copy(g.u, s.U)
	copy(g.v, s.V)
	g.step = s.Step
	return nil
}

// FieldStats returns min/max of the V field (sanity: values must stay
// within [0, 1.5] for stable parameters).
func (g *GrayScott) FieldStats() (min, max float64) {
	min, max = math.Inf(1), math.Inf(-1)
	for _, v := range g.v {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}
