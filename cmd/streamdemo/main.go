// Command streamdemo runs the Section V-C synthetic workflow as real
// processes over TCP: it starts a data-scheduler server, attaches an
// instrument producer and a downstream consumer, and then plays the remote
// steering process — installing a direct-selection policy at runtime via
// control punctuation and pulling a specific queued item out.
//
//	streamdemo [-items 200] [-addr 127.0.0.1:0]
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"fairflow/internal/stream"
)

func main() {
	items := flag.Int("items", 200, "items the instrument publishes")
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	flag.Parse()

	schema := &stream.Schema{
		Name: "instrument",
		Fields: []stream.Field{
			{Name: "sensor", Type: stream.TInt64},
			{Name: "value", Type: stream.TFloat64},
		},
	}

	sched := stream.NewScheduler()
	if err := sched.Install("live", stream.ForwardAll{}); err != nil {
		fatal(err)
	}
	srv, err := stream.NewServer(sched, schema)
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	serverAddr := ln.Addr().String()
	fmt.Printf("streamdemo: scheduler serving on %s (queue 'live' = forward-all)\n", serverAddr)

	// Downstream consumer on the live queue.
	var mu sync.Mutex
	liveCount := 0
	var steered []int64
	go stream.SubscribeTCP(serverAddr, "live", func(it stream.Item) {
		mu.Lock()
		liveCount++
		mu.Unlock()
	})
	go stream.SubscribeTCP(serverAddr, "steered", func(it stream.Item) {
		mu.Lock()
		steered = append(steered, it.Seq)
		mu.Unlock()
	})
	// Publish only once both subscriptions are registered: an item forwarded
	// before its subscriber attaches never reaches it.
	for deadline := time.Now().Add(3 * time.Second); srv.Subscribers("") < 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			fatal(fmt.Errorf("subscribers never registered"))
		}
	}

	// The remote steering process: install a selection queue at runtime.
	ctl, err := stream.DialControl(serverAddr)
	if err != nil {
		fatal(err)
	}
	defer ctl.Close()
	if err := ctl.Send(stream.WirePunctuation{
		Op: "install", Queue: "steered",
		Policy: &stream.WirePolicy{Kind: "direct-selection", Capacity: 10_000},
	}); err != nil {
		fatal(err)
	}
	fmt.Println("streamdemo: steering client installed queue 'steered' (direct-selection) at runtime")

	// The instrument.
	prod, err := stream.DialProducer(serverAddr, schema)
	if err != nil {
		fatal(err)
	}
	for i := 0; i < *items; i++ {
		rec := stream.Record{Schema: schema, Values: []any{int64(i % 8), float64(i) * 0.5}}
		if err := prod.Send(stream.Item{Seq: int64(i), Time: time.Now(), Payload: rec}); err != nil {
			fatal(err)
		}
	}
	prod.Close()

	// Steer: pull one specific queued item.
	want := int64(*items / 2)
	if err := ctl.Send(stream.WirePunctuation{Op: "select", Queue: "steered", Seqs: []int64{want}}); err != nil {
		fatal(err)
	}

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		done := liveCount >= *items && len(steered) == 1
		mu.Unlock()
		if done {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	fmt.Printf("streamdemo: live queue delivered %d/%d items\n", liveCount, *items)
	fmt.Printf("streamdemo: steering selected item %v out of the queued stream\n", steered)
	for _, q := range sched.Queues() {
		fmt.Printf("  queue %-8s policy=%-28s active=%v admitted=%d forwarded=%d\n",
			q.Name, q.Policy, q.Active, q.Admitted, q.Forwarded)
	}
	if liveCount < *items || len(steered) != 1 || steered[0] != want {
		fatal(fmt.Errorf("demo did not converge"))
	}
	fmt.Println("streamdemo: OK — communication components unchanged, policy installed at runtime")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "streamdemo:", err)
	os.Exit(1)
}
