package stream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
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

// virtualQueue pairs a policy with delivery state.
type virtualQueue struct {
	name      string
	policy    Policy
	active    bool
	admitted  int64
	forwarded int64
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
}

// NewScheduler returns a scheduler with no queues; a freshly generated
// deployment typically installs ForwardAll as its initial policy.
func NewScheduler() *Scheduler {
	return &Scheduler{queues: map[string]*virtualQueue{}}
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
		if out := q.policy.Admit(it); len(out) > 0 {
			q.forwarded += int64(len(out))
			if first.items == nil {
				first = delivery{name, out}
			} else {
				spill = append(spill, delivery{name, out})
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
// for OpMark, which is queue-independent and changes no queue.
func (s *Scheduler) Punctuate(cmd Punctuation) error {
	s.mu.Lock()
	var released []Item
	var queueName string
	switch cmd.Op {
	case OpMark:
		s.mu.Unlock()
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
		s.queues[cmd.Queue] = &virtualQueue{name: cmd.Queue, policy: cmd.Policy, active: true}
		s.order = append(s.order, cmd.Queue)
		s.mu.Unlock()
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
		case OpSelect:
			released = q.policy.Control(cmd)
			q.forwarded += int64(len(released))
		default:
			s.mu.Unlock()
			return fmt.Errorf("stream: unknown punctuation op %q", cmd.Op)
		}
	}
	consumers := s.consumers // copy-on-write: safe to use after unlock
	s.mu.Unlock()

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
