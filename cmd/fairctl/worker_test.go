package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fairflow/internal/cheetah"
	"fairflow/internal/remote"
)

// TestWorkerMemoKeysOnTheCommand runs campaigns of the same runs over one
// -cas store and one -workdir, each through a worker built as "fairctl
// worker" builds it. A second command is a different component: its
// campaign executes every run and leaves its own output, where a memo keyed
// by anything less would report the first command's results as cached. The
// first command again, under another worker name, is served from the memo
// and restores its outputs.
func TestWorkerMemoKeysOnTheCommand(t *testing.T) {
	casDir, workdir := t.TempDir(), t.TempDir()
	runs := make([]cheetah.Run, 4)
	for i := range runs {
		runs[i] = cheetah.Run{ID: fmt.Sprintf("g/s/run-%d", i), Group: "g", Sweep: "s", Index: i,
			Params: map[string]string{"i": fmt.Sprint(i)}}
	}
	pass := func(name, word string) (executed, cached int) {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w, cleanup, err := newWorker([]string{"-connect", ln.Addr().String(), "-name", name,
			"-cas", casDir, "-workdir", workdir, "-out", "o:out.txt", "--", "sh", "-c", "echo " + word + " > out.txt"})
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()
		served := make(chan error, 1)
		go func() { served <- w.Serve(context.Background()) }()
		e := &remote.Engine{Listener: ln, LeaseTTL: 2 * time.Second, WorkerWait: 10 * time.Second}
		_, report, err := e.RunCampaign(context.Background(), "command-memo", runs)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-served; err != nil {
			t.Fatalf("worker %s: %v", name, err)
		}
		if !report.Complete() || report.Succeeded+report.Cached != len(runs) {
			t.Fatalf("%s campaign: report %+v", word, report)
		}
		for _, run := range runs {
			got, err := os.ReadFile(filepath.Join(workdir, filepath.FromSlash(run.ID), "out.txt"))
			if err != nil || string(got) != word+"\n" {
				t.Errorf("%s campaign: run %s left %q (%v), want %q", word, run.ID, got, err, word+"\n")
			}
		}
		return report.Succeeded, report.Cached
	}

	if executed, cached := pass("w0", "A"); executed != len(runs) || cached != 0 {
		t.Fatalf("first command: %d executed, %d cached; want %d executed", executed, cached, len(runs))
	}
	if executed, cached := pass("w1", "B"); executed != len(runs) || cached != 0 {
		t.Fatalf("second command: %d executed, %d cached; want every run executed", executed, cached)
	}
	if executed, cached := pass("w2", "A"); executed != 0 || cached != len(runs) {
		t.Fatalf("first command again: %d executed, %d cached; want every run cached", executed, cached)
	}
}

// TestCommandDigestNamesWhatRuns: the memo's component changes with the
// command template and with the outputs it collects, and with nothing a
// worker chooses for itself.
func TestCommandDigestNamesWhatRuns(t *testing.T) {
	build := func(args ...string) string {
		t.Helper()
		w, cleanup, err := newWorker(append([]string{"-connect", "127.0.0.1:1", "-cas", filepath.Join(t.TempDir(), "cas")}, args...))
		if err != nil {
			t.Fatal(err)
		}
		cleanup()
		return w.Memo.ComponentDigest
	}
	base := build("-out", "o:out.txt", "--", "sh", "-c", "echo A > out.txt")
	if got := build("-name", "elsewhere", "-workdir", t.TempDir(), "-out", "o:out.txt", "--", "sh", "-c", "echo A > out.txt"); got != base {
		t.Errorf("another worker name and -workdir changed the component: %s, want %s", got, base)
	}
	for _, args := range [][]string{
		{"-out", "o:out.txt", "--", "sh", "-c", "echo B > out.txt"},
		{"-out", "o:other.txt", "--", "sh", "-c", "echo A > out.txt"},
		{"--", "sh", "-c", "echo A > out.txt"},
		{"-out", "o:out.txt", "--", "sh", "-c echo A > out.txt"},
	} {
		if got := build(args...); got == base {
			t.Errorf("%q keys as the base command does", args)
		}
	}
}
