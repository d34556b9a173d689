package cheetah

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestSetRunStatusNeverObservablyTorn has two appenders — one StatusLog
// handle each, as a coordinator and its successor would hold — write
// transitions for every run while a reader summarises the directory in a
// loop: because a transition is one O_APPEND write of one whole line, and a
// reader ignores an unterminated last line, Status never errors and never
// reports anything but the four statuses.
func TestSetRunStatusNeverObservablyTorn(t *testing.T) {
	m, err := BuildManifest(demoCampaign())
	if err != nil {
		t.Fatal(err)
	}
	dir, err := m.Materialize(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	statuses := []RunStatus{RunPending, RunRunning, RunSucceeded, RunFailed}

	var writers sync.WaitGroup
	writeErrs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			l, err := OpenStatusLog(dir)
			if err != nil {
				writeErrs <- err
				return
			}
			for i := 0; i < 2000; i++ {
				if err := l.Set(StatusLine{m.Runs[i%len(m.Runs)].ID, statuses[(i+w)%len(statuses)]}); err != nil {
					writeErrs <- err
					break
				}
			}
			if err := l.Close(); err != nil {
				writeErrs <- err
			}
		}()
	}

	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			sum, err := Status(dir)
			if err != nil {
				t.Errorf("status unreadable mid-update: %v", err)
				return
			}
			for st := range sum.ByStatus {
				if !st.valid() {
					t.Errorf("observed torn status %q", st)
					return
				}
			}
		}
	}()

	writers.Wait()
	close(stop)
	<-readerDone
	select {
	case err := <-writeErrs:
		t.Fatal(err)
	default:
	}

	// Every line of the finished log is whole: 4000 records, nothing else.
	data, err := os.ReadFile(filepath.Join(dir, statusLogName))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 4000 || data[len(data)-1] != '\n' {
		t.Fatalf("log holds %d terminated lines, want 4000", n)
	}
}

// TestMaterializeWritesCompleteFiles re-reads every file a fresh campaign
// directory contains and checks it parses/validates — the atomic-write path
// must leave only complete JSON and status files, plus no temp droppings
// anywhere in the tree.
func TestMaterializeWritesCompleteFiles(t *testing.T) {
	m, err := BuildManifest(demoCampaign())
	if err != nil {
		t.Fatal(err)
	}
	dir, err := m.Materialize(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCampaignDir(dir); err != nil {
		t.Fatalf("campaign.json does not round-trip: %v", err)
	}
	sum, err := Status(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.ByStatus[RunPending] != len(m.Runs) {
		t.Fatalf("pending = %d, want %d", sum.ByStatus[RunPending], len(m.Runs))
	}
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if strings.Contains(d.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
