package hpcsim

import (
	"math"
	"math/rand"
)

// FSConfig parameterises the shared parallel filesystem model.
type FSConfig struct {
	// AggregateBW is the filesystem's total bandwidth in bytes/second under
	// zero external load (e.g. Summit's Alpine: ~2.5 TB/s).
	AggregateBW float64
	// PerNodeBW caps what a single client node can push (e.g. ~12.5 GB/s
	// over dual EDR InfiniBand).
	PerNodeBW float64
	// LoadUpdateInterval is how often (simulated seconds) the external-load
	// process advances. External load models the rest of the centre's
	// machines hammering the shared filesystem.
	LoadUpdateInterval float64
	// LoadMean is the stationary mean of the external load factor L ≥ 0.
	// Effective aggregate bandwidth is AggregateBW / (1 + L).
	LoadMean float64
	// LoadPersistence ρ ∈ [0,1) is the AR(1) autocorrelation of the load
	// process; high values give slowly-wandering congestion, matching the
	// multi-minute load epochs seen on production filesystems.
	LoadPersistence float64
	// LoadJitter σ is the AR(1) innovation standard deviation.
	LoadJitter float64
	// BurstProb is the per-update probability of a congestion burst; bursts
	// add a Pareto-distributed spike to the load.
	BurstProb float64
}

// DefaultSummitFS returns a filesystem configuration shaped like Summit's
// Alpine (GPFS): 2.5 TB/s aggregate, 12.5 GB/s per node, with a wandering
// external load averaging 1.0 (i.e. on average half the bandwidth is
// consumed by other users) and occasional heavy bursts.
func DefaultSummitFS() FSConfig {
	return FSConfig{
		AggregateBW:        2.5e12,
		PerNodeBW:          12.5e9,
		LoadUpdateInterval: 10,
		LoadMean:           1.0,
		LoadPersistence:    0.9,
		LoadJitter:         0.25,
		BurstProb:          0.03,
	}
}

// CongestedFS models a production filesystem during a busy period: the
// aggregate bandwidth a single job actually obtains is an order of magnitude
// below machine peak and wanders substantially. This is the regime the
// paper's checkpoint experiment lives in — checkpoint cost is a meaningful
// fraction of compute time and varies between runs.
func CongestedFS() FSConfig {
	return FSConfig{
		AggregateBW:        2.6e11, // 260 GB/s nominal share
		PerNodeBW:          2e9,    // 2 GB/s per client node
		LoadUpdateInterval: 10,
		LoadMean:           1.0,
		LoadPersistence:    0.85,
		LoadJitter:         0.45,
		BurstProb:          0.06,
	}
}

// transfer is one in-flight filesystem write/read.
type transfer struct {
	nodes      int
	size       float64 // total bytes
	remaining  float64 // bytes left
	rate       float64 // bytes/s, current share
	started    float64
	done       func(elapsed float64)
	completion *Event
}

// Filesystem models a shared parallel filesystem. Concurrent transfers share
// the load-degraded aggregate bandwidth by water-filling subject to each
// transfer's per-node cap, so a wide checkpoint from 128 nodes and a narrow
// single-node write contend realistically.
type Filesystem struct {
	sim      *Sim
	cfg      FSConfig
	rng      *rand.Rand
	load     float64
	active   map[*transfer]struct{}
	lastCalc float64
	loadTick *Event
	// TotalBytes accumulates completed transfer volume (for reporting).
	TotalBytes float64
}

// NewFilesystem attaches a filesystem model to a simulation kernel. The
// filesystem uses its own random stream so that filesystem noise is
// reproducible independently of other components.
func NewFilesystem(sim *Sim, cfg FSConfig, seed int64) *Filesystem {
	if cfg.AggregateBW <= 0 || cfg.PerNodeBW <= 0 {
		panic("hpcsim: filesystem bandwidth must be positive")
	}
	if cfg.LoadUpdateInterval <= 0 {
		cfg.LoadUpdateInterval = 10
	}
	return &Filesystem{
		sim:    sim,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(seed)),
		load:   math.Max(0, cfg.LoadMean),
		active: map[*transfer]struct{}{},
	}
}

// EffectiveAggregateBW is the aggregate bandwidth available to simulated
// clients right now.
func (fs *Filesystem) EffectiveAggregateBW() float64 {
	return fs.cfg.AggregateBW / (1 + fs.load)
}

// Write starts a transfer of the given bytes striped from the given number
// of client nodes. done fires on completion with the elapsed transfer time.
// Zero-byte writes complete immediately (after the event-loop turn).
func (fs *Filesystem) Write(nodes int, bytes float64, done func(elapsed float64)) {
	if nodes < 1 {
		nodes = 1
	}
	if bytes <= 0 {
		start := fs.sim.Now()
		fs.sim.After(0, func() { done(fs.sim.Now() - start) })
		return
	}
	tr := &transfer{nodes: nodes, size: bytes, remaining: bytes, started: fs.sim.Now(), done: done}
	fs.settle()
	fs.active[tr] = struct{}{}
	fs.recalc()
	fs.ensureLoadTick()
}

// settle advances every active transfer's remaining bytes to the current
// simulated time at its current rate. Must be called before any rate change.
func (fs *Filesystem) settle() {
	now := fs.sim.Now()
	dt := now - fs.lastCalc
	if dt > 0 {
		for tr := range fs.active {
			tr.remaining -= tr.rate * dt
			if tr.remaining < 0 {
				tr.remaining = 0
			}
		}
	}
	fs.lastCalc = now
}

// recalc redistributes bandwidth across active transfers (water-filling
// subject to per-node caps) and reschedules completion events.
func (fs *Filesystem) recalc() {
	if len(fs.active) == 0 {
		return
	}
	avail := fs.EffectiveAggregateBW()
	// Water-filling: repeatedly hand every unsaturated transfer an equal
	// share; transfers capped below the share keep their cap and return the
	// surplus to the pool.
	type entry struct {
		tr  *transfer
		cap float64
	}
	entries := make([]entry, 0, len(fs.active))
	for tr := range fs.active {
		entries = append(entries, entry{tr, fs.cfg.PerNodeBW * float64(tr.nodes)})
	}
	remaining := avail
	unsat := entries
	rates := map[*transfer]float64{}
	for len(unsat) > 0 && remaining > 0 {
		share := remaining / float64(len(unsat))
		var next []entry
		progressed := false
		for _, e := range unsat {
			if e.cap <= share {
				rates[e.tr] = e.cap
				remaining -= e.cap
				progressed = true
			} else {
				next = append(next, e)
			}
		}
		if !progressed {
			for _, e := range next {
				rates[e.tr] = share
			}
			remaining = 0
			next = nil
		}
		unsat = next
	}

	for tr := range fs.active {
		tr.rate = rates[tr]
		if tr.rate <= 0 {
			// Fully starved (pathological load); retry at next load tick.
			tr.rate = 0
		}
		tr.completion.Cancel()
		if tr.rate > 0 {
			eta := tr.remaining / tr.rate
			trCopy := tr
			tr.completion = fs.sim.After(eta, func() { fs.complete(trCopy) })
		}
	}
}

// complete finalises a transfer.
func (fs *Filesystem) complete(tr *transfer) {
	fs.settle()
	if _, ok := fs.active[tr]; !ok {
		return
	}
	delete(fs.active, tr)
	fs.TotalBytes += tr.size
	fs.recalc()
	tr.done(fs.sim.Now() - tr.started)
}

// ensureLoadTick keeps the external-load process advancing while transfers
// are active. The tick reschedules itself and stops when the filesystem goes
// idle, so a finished simulation's event queue drains.
func (fs *Filesystem) ensureLoadTick() {
	if fs.loadTick != nil && !fs.loadTick.Cancelled() {
		return
	}
	fs.loadTick = fs.sim.After(fs.cfg.LoadUpdateInterval, fs.tickLoad)
}

func (fs *Filesystem) tickLoad() {
	fs.loadTick = nil
	fs.stepLoad()
	if len(fs.active) > 0 {
		fs.settle()
		fs.recalc()
		fs.ensureLoadTick()
	}
}

// stepLoad advances the AR(1)-with-bursts load process one step.
func (fs *Filesystem) stepLoad() {
	rho := fs.cfg.LoadPersistence
	mean := fs.cfg.LoadMean
	fs.load = rho*fs.load + (1-rho)*mean + fs.rng.NormFloat64()*fs.cfg.LoadJitter
	if fs.cfg.BurstProb > 0 && fs.rng.Float64() < fs.cfg.BurstProb {
		u := fs.rng.Float64()
		for u == 0 {
			u = fs.rng.Float64()
		}
		fs.load += 0.5 / math.Pow(u, 1/2.5) // Pareto(xm=0.5, α=2.5) burst
	}
	if fs.load < 0 {
		fs.load = 0
	}
}
