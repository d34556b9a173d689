package hpcsim

import (
	"fmt"
	"sort"

	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// JobState tracks a batch job through its lifecycle.
type JobState string

// Job lifecycle states.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobCompleted JobState = "completed" // released by the job itself
	JobExpired   JobState = "expired"   // hit its walltime limit
)

// JobSpec describes a batch submission: a node count, a walltime limit, and
// the callback invoked when the allocation starts.
type JobSpec struct {
	Name     string
	Nodes    int
	Walltime float64 // seconds
	// OnStart runs when the scheduler grants the allocation. All work the
	// job performs is driven from this callback (and events it schedules).
	OnStart func(*Allocation)
	// OnEnd runs once when the job reaches a terminal state.
	OnEnd func(*Job)
}

// Job is a submitted batch job.
type Job struct {
	Spec      JobSpec
	State     JobState
	Submitted float64
	Started   float64
	Ended     float64
	alloc     *Allocation
}

// node is one compute node.
type node struct {
	id     int
	failed bool
	// alloc is the allocation currently owning the node, nil when free.
	alloc *Allocation
	// busy marks a task running on the node.
	busy bool
	// busySince is the start of the current busy interval.
	busySince float64
}

// SchedulingPolicy selects the batch scheduler's queue discipline.
type SchedulingPolicy string

// Queue disciplines.
const (
	// FIFO starts jobs strictly in submission order; the head job blocks
	// the queue until it fits.
	FIFO SchedulingPolicy = "fifo"
	// Backfill is EASY backfill: the head job gets a reservation at the
	// earliest time enough nodes will free up, and later jobs may jump
	// ahead if they fit on currently idle nodes AND finish (per their
	// walltime) before that reservation.
	Backfill SchedulingPolicy = "backfill"
)

// ClusterConfig sizes the simulated machine.
type ClusterConfig struct {
	Nodes int
	// FS configures the shared filesystem; zero value uses DefaultSummitFS.
	FS FSConfig
	// Scheduling selects the queue discipline (default FIFO).
	Scheduling SchedulingPolicy
}

// Cluster is the simulated machine: nodes, a batch scheduler (FIFO or EASY
// backfill), and the shared filesystem.
type Cluster struct {
	sim        *Sim
	fs         *Filesystem
	nodes      []*node
	queue      []*Job
	jobs       []*Job
	util       *UtilRecorder
	scheduling SchedulingPolicy
	// CompletedJobs and ExpiredJobs count terminal jobs.
	CompletedJobs int
	ExpiredJobs   int
	// BackfilledJobs counts jobs started out of queue order.
	BackfilledJobs int

	// Telemetry instruments (nil until SetMetrics — updates are then no-ops
	// beyond one nil check on gFree).
	gFree       *telemetry.Gauge
	gBusy       *telemetry.Gauge
	gQueued     *telemetry.Gauge
	gUtil       *telemetry.Gauge
	mCompleted  *telemetry.Counter
	mExpired    *telemetry.Counter
	mBackfilled *telemetry.Counter

	// events journals job and node transitions (nil until SetEvents).
	events *eventlog.Log
}

// NewCluster builds a cluster of cfg.Nodes nodes attached to sim. The
// filesystem noise stream is derived from fsSeed.
func NewCluster(sim *Sim, cfg ClusterConfig, fsSeed int64) *Cluster {
	if cfg.Nodes < 1 {
		panic("hpcsim: cluster needs at least one node")
	}
	fscfg := cfg.FS
	if fscfg.AggregateBW == 0 {
		fscfg = DefaultSummitFS()
	}
	scheduling := cfg.Scheduling
	if scheduling == "" {
		scheduling = FIFO
	}
	c := &Cluster{
		sim:        sim,
		fs:         NewFilesystem(sim, fscfg, fsSeed),
		util:       NewUtilRecorder(),
		scheduling: scheduling,
	}
	for i := 0; i < cfg.Nodes; i++ {
		c.nodes = append(c.nodes, &node{id: i})
	}
	return c
}

// Sim returns the simulation kernel the cluster runs on.
func (c *Cluster) Sim() *Sim { return c.sim }

// Util returns the node-utilisation recorder.
func (c *Cluster) Util() *UtilRecorder { return c.util }

// FreeNodes counts nodes that are neither failed nor allocated.
func (c *Cluster) FreeNodes() int {
	n := 0
	for _, nd := range c.nodes {
		if !nd.failed && nd.alloc == nil {
			n++
		}
	}
	return n
}

// Submit places a job in the batch queue and returns it. The queue is
// FIFO by default; with ClusterConfig.Scheduling set to Backfill, later
// jobs may jump ahead under the EASY reservation rule.
func (c *Cluster) Submit(spec JobSpec) (*Job, error) {
	if spec.Nodes < 1 {
		return nil, fmt.Errorf("hpcsim: job %q requests %d nodes", spec.Name, spec.Nodes)
	}
	if spec.Nodes > len(c.nodes) {
		return nil, fmt.Errorf("hpcsim: job %q requests %d nodes, machine has %d", spec.Name, spec.Nodes, len(c.nodes))
	}
	if spec.Walltime <= 0 {
		return nil, fmt.Errorf("hpcsim: job %q has non-positive walltime", spec.Name)
	}
	j := &Job{Spec: spec, State: JobQueued, Submitted: c.sim.Now()}
	c.queue = append(c.queue, j)
	c.jobs = append(c.jobs, j)
	c.updateTelemetry()
	c.events.Append(eventlog.Info, eventlog.JobQueued, "", 0,
		telemetry.String("job", spec.Name), telemetry.Int("nodes", spec.Nodes))
	// Defer scheduling to an event so Submit never reenters user callbacks.
	c.sim.After(0, c.trySchedule)
	return j, nil
}

// trySchedule starts queued jobs while the head of the queue fits, then —
// under the Backfill discipline — starts later jobs that fit on idle nodes
// and finish before the head job's reservation.
func (c *Cluster) trySchedule() {
	for len(c.queue) > 0 {
		head := c.queue[0]
		free := c.freeNodeList()
		if len(free) < head.Spec.Nodes {
			break
		}
		c.queue = c.queue[1:]
		c.start(head, free[:head.Spec.Nodes])
	}
	if c.scheduling != Backfill || len(c.queue) < 2 {
		c.updateTelemetry()
		return
	}
	head := c.queue[0]
	reservation := c.reservationTime(head.Spec.Nodes)
	for i := 1; i < len(c.queue); {
		j := c.queue[i]
		free := c.freeNodeList()
		if len(free) >= j.Spec.Nodes && c.sim.Now()+j.Spec.Walltime <= reservation {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			c.BackfilledJobs++
			c.mBackfilled.Inc()
			c.events.Append(eventlog.Info, eventlog.JobBackfilled, "", 0,
				telemetry.String("job", j.Spec.Name))
			c.start(j, free[:j.Spec.Nodes])
			// Starting j occupies nodes that were idle anyway, and j ends
			// before the reservation, so the reservation stands.
			continue
		}
		i++
	}
	c.updateTelemetry()
}

// reservationTime computes the earliest time at which `nodes` nodes will be
// simultaneously free, assuming every running allocation holds its nodes to
// its walltime deadline (the scheduler's conservative view).
func (c *Cluster) reservationTime(nodes int) float64 {
	free := c.FreeNodes()
	if free >= nodes {
		return c.sim.Now()
	}
	// Collect (deadline, nodeCount) of running allocations.
	type rel struct {
		at float64
		n  int
	}
	seen := map[*Allocation]bool{}
	var rels []rel
	for _, nd := range c.nodes {
		if nd.alloc != nil && !seen[nd.alloc] {
			seen[nd.alloc] = true
			rels = append(rels, rel{nd.alloc.deadline, len(nd.alloc.nodes)})
		}
	}
	sort.Slice(rels, func(i, j int) bool { return rels[i].at < rels[j].at })
	for _, r := range rels {
		free += r.n
		if free >= nodes {
			return r.at
		}
	}
	// Unreachable with validated submissions; fall back to the last
	// deadline.
	if len(rels) > 0 {
		return rels[len(rels)-1].at
	}
	return c.sim.Now()
}

func (c *Cluster) freeNodeList() []*node {
	var free []*node
	for _, nd := range c.nodes {
		if !nd.failed && nd.alloc == nil {
			free = append(free, nd)
		}
	}
	sort.Slice(free, func(i, j int) bool { return free[i].id < free[j].id })
	return free
}

func (c *Cluster) start(j *Job, nodes []*node) {
	alloc := &Allocation{
		cluster:  c,
		job:      j,
		deadline: c.sim.Now() + j.Spec.Walltime,
		tasks:    map[*Task]struct{}{},
	}
	for _, nd := range nodes {
		nd.alloc = alloc
		alloc.nodes = append(alloc.nodes, nd)
	}
	j.alloc = alloc
	j.State = JobRunning
	j.Started = c.sim.Now()
	c.events.Append(eventlog.Info, eventlog.JobStarted, "", 0,
		telemetry.String("job", j.Spec.Name), telemetry.Int("nodes", len(nodes)))
	alloc.expiry = c.sim.At(alloc.deadline, func() { alloc.terminate(JobExpired) })
	if j.Spec.OnStart != nil {
		j.Spec.OnStart(alloc)
	}
}

// Allocation is a granted set of nodes with a walltime deadline. All task
// execution and filesystem I/O a job performs goes through its allocation.
type Allocation struct {
	cluster  *Cluster
	job      *Job
	nodes    []*node
	deadline float64
	expiry   *Event
	tasks    map[*Task]struct{}
	released bool
}

// Nodes returns the IDs of the allocation's (non-failed) nodes.
func (a *Allocation) Nodes() []int {
	out := make([]int, 0, len(a.nodes))
	for _, nd := range a.nodes {
		if !nd.failed {
			out = append(out, nd.id)
		}
	}
	return out
}

// Remaining returns seconds left before the walltime deadline.
func (a *Allocation) Remaining() float64 {
	r := a.deadline - a.cluster.sim.Now()
	if r < 0 || a.released {
		return 0
	}
	return r
}

// Active reports whether the allocation still holds its nodes.
func (a *Allocation) Active() bool { return !a.released }

// IdleNodes returns the allocation's nodes that are up and not running a
// task.
func (a *Allocation) IdleNodes() []int {
	var out []int
	for _, nd := range a.nodes {
		if !nd.failed && !nd.busy {
			out = append(out, nd.id)
		}
	}
	return out
}

// Task is one unit of work running on a single node of an allocation.
type Task struct {
	Name   string
	NodeID int
	// KillReason records why a killed task died — "node-failure",
	// "walltime", or "released" — and stays empty for tasks that completed.
	// Schedulers use it to decide whether a kill consumes retry budget.
	KillReason string
	alloc      *Allocation
	node       *node
	done       func(ok bool)
	finish     *Event
}

// RunTask starts a task of the given duration on a specific idle node of the
// allocation. done fires with ok=true on completion, ok=false if the task is
// killed by walltime expiry, release, or node failure.
func (a *Allocation) RunTask(name string, nodeID int, duration float64, done func(ok bool)) (*Task, error) {
	if a.released {
		return nil, fmt.Errorf("hpcsim: allocation for %q is released", a.job.Spec.Name)
	}
	if duration < 0 {
		return nil, fmt.Errorf("hpcsim: task %q has negative duration", name)
	}
	var nd *node
	for _, cand := range a.nodes {
		if cand.id == nodeID {
			nd = cand
			break
		}
	}
	if nd == nil {
		return nil, fmt.Errorf("hpcsim: node %d not in allocation", nodeID)
	}
	if nd.failed {
		return nil, fmt.Errorf("hpcsim: node %d is failed", nodeID)
	}
	if nd.busy {
		return nil, fmt.Errorf("hpcsim: node %d is busy", nodeID)
	}
	t := &Task{Name: name, NodeID: nodeID, alloc: a, node: nd, done: done}
	nd.busy = true
	nd.busySince = a.cluster.sim.Now()
	a.tasks[t] = struct{}{}
	t.finish = a.cluster.sim.After(duration, func() { t.complete(true) })
	a.cluster.updateTelemetry()
	return t, nil
}

// complete finishes a task; ok=false marks a kill.
func (t *Task) complete(ok bool) {
	a := t.alloc
	if _, live := a.tasks[t]; !live {
		return
	}
	delete(a.tasks, t)
	t.finish.Cancel()
	now := a.cluster.sim.Now()
	a.cluster.util.Record(t.node.busySince, now)
	t.node.busy = false
	a.cluster.updateTelemetry()
	if t.done != nil {
		t.done(ok)
	}
}

// WriteFS performs a filesystem write striped over the given number of the
// allocation's nodes. The callback receives the elapsed transfer time. The
// write does not occupy nodes (overlappable I/O); callers wanting blocking
// I/O simply avoid scheduling compute until the callback.
func (a *Allocation) WriteFS(nodes int, bytes float64, done func(elapsed float64)) {
	a.cluster.fs.Write(nodes, bytes, done)
}

// Release ends the job early (normal completion). Running tasks are killed.
func (a *Allocation) Release() {
	a.terminate(JobCompleted)
}

// terminate tears the allocation down into the given terminal state.
func (a *Allocation) terminate(state JobState) {
	if a.released {
		return
	}
	a.released = true
	a.expiry.Cancel()
	// Kill running tasks (ok=false), labelled with why the allocation ended.
	reason := "released"
	if state == JobExpired {
		reason = "walltime"
	}
	for t := range a.tasks {
		t.KillReason = reason
		t.complete(false)
	}
	for _, nd := range a.nodes {
		if nd.alloc == a {
			nd.alloc = nil
		}
	}
	a.job.State = state
	a.job.Ended = a.cluster.sim.Now()
	if state == JobCompleted {
		a.cluster.CompletedJobs++
		a.cluster.mCompleted.Inc()
		a.cluster.events.Append(eventlog.Info, eventlog.JobCompleted, "", 0,
			telemetry.String("job", a.job.Spec.Name))
	} else if state == JobExpired {
		a.cluster.ExpiredJobs++
		a.cluster.mExpired.Inc()
		a.cluster.events.Append(eventlog.Warn, eventlog.JobExpired, "walltime exceeded", 0,
			telemetry.String("job", a.job.Spec.Name))
	}
	a.cluster.updateTelemetry()
	if a.job.Spec.OnEnd != nil {
		a.job.Spec.OnEnd(a.job)
	}
	a.cluster.sim.After(0, a.cluster.trySchedule)
}
