package hpcsim

import (
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// SetMetrics registers the cluster's instruments in reg and starts feeding
// them: gauges hpcsim.free_nodes / busy_nodes / queued_jobs /
// node_utilization (busy fraction of the machine), and counters
// hpcsim.jobs_completed_total / jobs_expired_total / jobs_backfilled_total.
// Gauges refresh at every scheduling and task transition; a cluster without
// metrics pays one nil check per transition. A nil registry is a no-op.
func (c *Cluster) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.gFree = reg.Gauge("hpcsim.free_nodes")
	c.gBusy = reg.Gauge("hpcsim.busy_nodes")
	c.gQueued = reg.Gauge("hpcsim.queued_jobs")
	c.gUtil = reg.Gauge("hpcsim.node_utilization")
	c.mCompleted = reg.Counter("hpcsim.jobs_completed_total")
	c.mExpired = reg.Counter("hpcsim.jobs_expired_total")
	c.mBackfilled = reg.Counter("hpcsim.jobs_backfilled_total")
	c.updateTelemetry()
}

// SetEvents journals the cluster's job transitions (job.queued / started /
// backfilled / completed / expired) and — via the failure injector — node
// failures and repairs into l. Give the log a clock that reads the
// simulation's Now so the journal is stamped in virtual time. A nil log is a
// no-op.
func (c *Cluster) SetEvents(l *eventlog.Log) {
	c.events = l
}

// updateTelemetry refreshes the gauges from current node and queue state. A
// node is free when up and unallocated, busy when running a task; an
// allocated-but-idle node is neither.
func (c *Cluster) updateTelemetry() {
	if c.gFree == nil {
		return
	}
	free, busy := 0, 0
	for _, nd := range c.nodes {
		switch {
		case nd.failed:
		case nd.busy:
			busy++
		case nd.alloc == nil:
			free++
		}
	}
	c.gFree.Set(float64(free))
	c.gBusy.Set(float64(busy))
	c.gQueued.Set(float64(len(c.queue)))
	c.gUtil.Set(float64(busy) / float64(len(c.nodes)))
}
