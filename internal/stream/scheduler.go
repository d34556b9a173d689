package stream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// PunctuationOp enumerates control-channel operations. Punctuation signals
// "abstract divisions between groups of data" and carries the runtime
// steering commands that install and drive policies.
type PunctuationOp string

// Control operations.
const (
	// OpInstall attaches a new policy as a named virtual queue.
	OpInstall PunctuationOp = "install"
	// OpActivate (re-)enables a queue.
	OpActivate PunctuationOp = "activate"
	// OpDeactivate disables a queue without removing it.
	OpDeactivate PunctuationOp = "deactivate"
	// OpRemove detaches a queue entirely, flushing it downstream.
	OpRemove PunctuationOp = "remove"
	// OpSelect addresses a queue's policy directly (direct selection).
	OpSelect PunctuationOp = "select"
	// OpFlush drains a queue's buffered items downstream.
	OpFlush PunctuationOp = "flush"
	// OpMark is a pure data punctuation: a group boundary forwarded to
	// consumers out of band, carrying no scheduler action.
	OpMark PunctuationOp = "mark"
)

// Punctuation is one control-channel message.
type Punctuation struct {
	Op    PunctuationOp
	Queue string
	// Policy carries the policy instance for OpInstall.
	Policy Policy
	// Seqs carries sequence numbers for OpSelect.
	Seqs []int64
	// Label annotates OpMark boundaries.
	Label string
}

// Consumer receives forwarded items from a virtual queue.
type Consumer func(queue string, it Item)

// VirtualQueueInfo is a snapshot of one queue's state.
type VirtualQueueInfo struct {
	Name      string
	Policy    string
	Active    bool
	Admitted  int64
	Forwarded int64
}

// virtualQueue pairs a policy with delivery state. The telemetry counters
// live on the queue itself (resolved once at install or SetMetrics time) so
// the per-item ingest path never takes the registry lock; nil counters
// swallow updates.
type virtualQueue struct {
	name      string
	policy    Policy
	active    bool
	admitted  int64
	forwarded int64

	mAdmitted  *telemetry.Counter
	mForwarded *telemetry.Counter
	mAbsorbed  *telemetry.Counter
}

// Scheduler is the data-scheduling component of the collection/selection/
// forwarding subgraph (paper Fig. 5): it ingests items from collectors and
// forwards them through any number of simultaneously installed virtual data
// queues, "each defined by its own selection policy", to subscribed
// consumers. All mutation — including policy installation — happens at
// runtime through Punctuate, so steering processes can reshape the workflow
// without regeneration.
type Scheduler struct {
	mu     sync.Mutex
	queues map[string]*virtualQueue
	order  []string
	// consumers is copy-on-write: Subscribe replaces the slice with an
	// extended copy, so readers may publish the header they loaded under mu
	// to goroutine-local use without re-copying per Ingest — the hot path
	// never allocates for consumer fan-out.
	consumers []Consumer

	// metrics, when non-nil, labels per-queue counters; queues installed
	// after SetMetrics are wired automatically.
	metrics *telemetry.Registry
	mMarks  *telemetry.Counter
	// events, when non-nil, journals punctuation commands ("queue.<op>").
	events *eventlog.Log
}

// NewScheduler returns a scheduler with no queues; a freshly generated
// deployment typically installs ForwardAll as its initial policy.
func NewScheduler() *Scheduler {
	return &Scheduler{queues: map[string]*virtualQueue{}}
}

// SetMetrics registers the scheduler's instruments in reg and starts feeding
// them: stream.items_admitted_total / items_forwarded_total /
// items_absorbed_total, labelled {queue, policy} per virtual queue, plus
// stream.marks_total. Absorbed counts items a policy held back (or dropped)
// at admission; a later flush/select release counts them forwarded. Queues
// already installed are wired retroactively; future installs wire
// automatically. A nil registry is a no-op.
func (s *Scheduler) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = reg
	s.mMarks = reg.Counter("stream.marks_total")
	for _, q := range s.queues {
		s.wireQueue(q)
	}
}

// SetEvents journals punctuation commands into l as "queue.<op>" events
// (nil turns journaling off). Data items are not journaled — they are the
// hot path; the control channel is the story worth keeping.
func (s *Scheduler) SetEvents(l *eventlog.Log) {
	s.mu.Lock()
	s.events = l
	s.mu.Unlock()
}

// wireQueue resolves one queue's counters; callers hold mu.
func (s *Scheduler) wireQueue(q *virtualQueue) {
	if s.metrics == nil {
		return
	}
	labels := []string{"queue", q.name, "policy", q.policy.Name()}
	q.mAdmitted = s.metrics.Counter("stream.items_admitted_total", labels...)
	q.mForwarded = s.metrics.Counter("stream.items_forwarded_total", labels...)
	q.mAbsorbed = s.metrics.Counter("stream.items_absorbed_total", labels...)
}

// Subscribe registers a consumer for all queues' forwarded items. The
// consumer list is copied here, at subscription time (rare), never on the
// per-item ingest path (hot).
func (s *Scheduler) Subscribe(c Consumer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := make([]Consumer, len(s.consumers)+1)
	copy(next, s.consumers)
	next[len(s.consumers)] = c
	s.consumers = next
}

// Install is shorthand for Punctuate(OpInstall).
func (s *Scheduler) Install(queue string, p Policy) error {
	return s.Punctuate(Punctuation{Op: OpInstall, Queue: queue, Policy: p})
}

// Ingest feeds one item to every active virtual queue. The common cases —
// no queue forwards (a filtering policy absorbing the item) or exactly one
// queue forwards — allocate nothing beyond what the policy itself returns.
func (s *Scheduler) Ingest(it Item) {
	type delivery struct {
		queue string
		items []Item
	}
	s.mu.Lock()
	events := s.events
	// First forwarding queue is kept inline; a spill slice is only
	// allocated when two or more queues forward on the same item.
	var first delivery
	var spill []delivery
	for _, name := range s.order {
		q := s.queues[name]
		if !q.active {
			continue
		}
		q.admitted++
		q.mAdmitted.Inc()
		if out := q.policy.Admit(it); len(out) > 0 {
			q.forwarded += int64(len(out))
			q.mForwarded.Add(int64(len(out)))
			if first.items == nil {
				first = delivery{name, out}
			} else {
				spill = append(spill, delivery{name, out})
			}
		} else {
			q.mAbsorbed.Inc()
			if events.Enabled(eventlog.Debug) {
				events.Append(eventlog.Debug, eventlog.QueueAbsorbed, "", 0,
					telemetry.String("queue", name), telemetry.Int("seq", int(it.Seq)))
			}
		}
	}
	consumers := s.consumers // copy-on-write: safe to use after unlock
	s.mu.Unlock()

	if first.items == nil {
		return
	}
	// Deliver outside the lock so consumers may call back into the
	// scheduler (e.g. a steering consumer issuing punctuation).
	for _, c := range consumers {
		for _, it := range first.items {
			c(first.queue, it)
		}
	}
	for _, d := range spill {
		for _, c := range consumers {
			for _, it := range d.items {
				c(d.queue, it)
			}
		}
	}
}

// Punctuate applies one control message. Unknown queues are an error except
// for OpMark, which is queue-independent.
func (s *Scheduler) Punctuate(cmd Punctuation) error {
	s.mu.Lock()
	events := s.events
	var released []Item
	var queueName string
	switch cmd.Op {
	case OpMark:
		s.mMarks.Inc()
		s.mu.Unlock()
		events.Append(eventlog.Info, "queue."+string(OpMark), cmd.Label, 0)
		return nil
	case OpInstall:
		if cmd.Queue == "" || cmd.Policy == nil {
			s.mu.Unlock()
			return fmt.Errorf("stream: install needs a queue name and a policy")
		}
		if _, dup := s.queues[cmd.Queue]; dup {
			s.mu.Unlock()
			return fmt.Errorf("stream: queue %q already installed", cmd.Queue)
		}
		q := &virtualQueue{name: cmd.Queue, policy: cmd.Policy, active: true}
		s.wireQueue(q)
		s.queues[cmd.Queue] = q
		s.order = append(s.order, cmd.Queue)
		s.mu.Unlock()
		events.Append(eventlog.Info, "queue."+string(OpInstall), "", 0,
			telemetry.String("queue", cmd.Queue), telemetry.String("policy", cmd.Policy.Name()))
		return nil
	default:
		q, ok := s.queues[cmd.Queue]
		if !ok {
			s.mu.Unlock()
			return fmt.Errorf("stream: unknown queue %q", cmd.Queue)
		}
		queueName = q.name
		switch cmd.Op {
		case OpActivate:
			q.active = true
		case OpDeactivate:
			q.active = false
		case OpRemove:
			released = q.policy.Flush()
			q.forwarded += int64(len(released))
			q.mForwarded.Add(int64(len(released)))
			delete(s.queues, cmd.Queue)
			for i, n := range s.order {
				if n == cmd.Queue {
					s.order = append(s.order[:i], s.order[i+1:]...)
					break
				}
			}
		case OpFlush:
			released = q.policy.Flush()
			q.forwarded += int64(len(released))
			q.mForwarded.Add(int64(len(released)))
		case OpSelect:
			released = q.policy.Control(cmd)
			q.forwarded += int64(len(released))
			q.mForwarded.Add(int64(len(released)))
		default:
			s.mu.Unlock()
			return fmt.Errorf("stream: unknown punctuation op %q", cmd.Op)
		}
	}
	consumers := s.consumers // copy-on-write: safe to use after unlock
	s.mu.Unlock()

	events.Append(eventlog.Info, "queue."+string(cmd.Op), "", 0,
		telemetry.String("queue", queueName), telemetry.Int("released", len(released)))
	for _, c := range consumers {
		for _, it := range released {
			c(queueName, it)
		}
	}
	return nil
}

// Queues returns a snapshot of all installed queues, sorted by name.
func (s *Scheduler) Queues() []VirtualQueueInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]VirtualQueueInfo, 0, len(s.queues))
	for _, q := range s.queues {
		out = append(out, VirtualQueueInfo{
			Name: q.name, Policy: q.policy.Name(), Active: q.active,
			Admitted: q.admitted, Forwarded: q.forwarded,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ApplyPunctuationScript reads JSON-lines of WirePunctuation (the format
// Skel-generated deployment files use) and applies each to the scheduler in
// order, returning how many commands were applied. Blank lines and lines
// starting with '#' are skipped, so generated scripts can carry comments.
func ApplyPunctuationScript(r io.Reader, s *Scheduler) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	applied := 0
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var wp WirePunctuation
		if err := json.Unmarshal([]byte(text), &wp); err != nil {
			return applied, fmt.Errorf("stream: deployment line %d: %w", line, err)
		}
		p, err := wp.ToPunctuation()
		if err != nil {
			return applied, fmt.Errorf("stream: deployment line %d: %w", line, err)
		}
		if err := s.Punctuate(p); err != nil {
			return applied, fmt.Errorf("stream: deployment line %d: %w", line, err)
		}
		applied++
	}
	return applied, sc.Err()
}

// Replay decodes an FBS stream and ingests every item into the scheduler —
// the file-based re-run path: a captured instrument stream can be pushed
// back through a (re)configured workflow graph. Returns the item count.
func Replay(r io.Reader, s *Scheduler) (int, error) {
	dec := NewDecoder(r)
	n := 0
	for {
		it, err := dec.Decode()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		s.Ingest(it)
		n++
	}
}
