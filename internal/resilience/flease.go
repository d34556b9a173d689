package resilience

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"fairflow/internal/appendlog"
)

// The coordinator lease file is the failover election primitive: one small
// JSON file next to the attempt journal naming the active coordinator and
// when its claim expires. The active incarnation renews it well inside the
// TTL; a warm standby polls it and takes over the campaign once the claim
// goes stale. Writes go through the atomic temp+rename path, so observers
// always read a whole claim — never a torn one. Every read-check-write of
// the claim (acquire, renew, release) runs under a flock of the file's
// directory, so two processes claiming at the same instant cannot both find
// it free, and a deposed holder's renewal or release cannot land on top of
// its successor's claim.
//
// The file is an *election* mechanism, not the fence. Fencing is the
// journal epoch (OpenEpoch) plus the renewal check below: a coordinator
// whose renewal discovers another holder's claim knows it has been deposed
// and must stop journaling (Journal.Fence) and abort. Two coordinators can
// briefly both believe they hold the file (clock skew, paused process), but
// they cannot both hold the highest journal epoch.

// FileLeaseState is the on-disk claim.
type FileLeaseState struct {
	// Holder names the claiming coordinator incarnation.
	Holder string `json:"holder"`
	// Epoch is the journal epoch the holder fenced at (0 before OpenEpoch).
	Epoch int64 `json:"epoch,omitempty"`
	// ExpiresUnixNano is the claim deadline; a claim past it is stale and a
	// standby may take over.
	ExpiresUnixNano int64 `json:"expires"`
}

// Expired reports whether the claim is stale at now.
func (s FileLeaseState) Expired(now time.Time) bool {
	return now.UnixNano() >= s.ExpiresUnixNano
}

// ReadFileLease loads the claim at path. ok is false when no file exists
// (no coordinator has ever claimed the campaign).
func ReadFileLease(path string) (st FileLeaseState, ok bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return FileLeaseState{}, false, nil
	}
	if err != nil {
		return FileLeaseState{}, false, err
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return FileLeaseState{}, false, fmt.Errorf("resilience: bad lease file %s: %w", path, err)
	}
	return st, true, nil
}

// FileLease is one incarnation's live claim on a lease file.
type FileLease struct {
	path   string
	holder string
	ttl    time.Duration
	epoch  int64
	now    func() time.Time
}

// AcquireFileLease claims the lease file for holder, failing if a live
// claim by someone else exists. ttl is the claim duration per write; call
// Renew at a fraction of it (TTL/3 is the convention).
func AcquireFileLease(path, holder string, ttl time.Duration) (*FileLease, error) {
	return acquireFileLease(path, holder, ttl, time.Now)
}

func acquireFileLease(path, holder string, ttl time.Duration, now func() time.Time) (*FileLease, error) {
	if ttl <= 0 {
		ttl = 5 * time.Second
	}
	unlock, err := lockClaimDir(path)
	if err != nil {
		return nil, err
	}
	defer unlock()
	st, ok, err := ReadFileLease(path)
	if err != nil {
		return nil, err
	}
	if ok && st.Holder != holder && !st.Expired(now()) {
		return nil, fmt.Errorf("resilience: lease file %s held by %q until %s",
			path, st.Holder, time.Unix(0, st.ExpiresUnixNano).Format(time.RFC3339Nano))
	}
	l := &FileLease{path: path, holder: holder, ttl: ttl, now: now}
	if err := l.write(); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *FileLease) write() error {
	data, err := json.Marshal(FileLeaseState{
		Holder: l.holder, Epoch: l.epoch,
		ExpiresUnixNano: l.now().Add(l.ttl).UnixNano(),
	})
	if err != nil {
		return err
	}
	return appendlog.WriteFileAtomic(l.path, append(data, '\n'), 0o644)
}

// SetEpoch records the journal epoch in subsequent claim writes, so
// observers (fairctl, a standby's logs) can see which epoch is active.
func (l *FileLease) SetEpoch(epoch int64) { l.epoch = epoch }

// Renew re-stamps the claim deadline — after verifying the claim is still
// ours. Finding another holder's claim means a standby decided we were
// dead and took over: the caller must fence its journal and abort, not
// fight back.
func (l *FileLease) Renew() error {
	unlock, err := lockClaimDir(l.path)
	if err != nil {
		return err
	}
	defer unlock()
	st, ok, err := ReadFileLease(l.path)
	if err != nil {
		return err
	}
	if ok && st.Holder != l.holder {
		return fmt.Errorf("resilience: lease file %s taken over by %q", l.path, st.Holder)
	}
	if !ok {
		// Claim file deleted out from under us — treat like a takeover; a
		// clean Release by ourselves would have stopped the renew loop first.
		return fmt.Errorf("resilience: lease file %s disappeared", l.path)
	}
	return l.write()
}

// Release drops the claim if it is still ours (a deposed incarnation must
// not delete its successor's claim).
func (l *FileLease) Release() error {
	unlock, err := lockClaimDir(l.path)
	if err != nil {
		return err
	}
	defer unlock()
	st, ok, err := ReadFileLease(l.path)
	if err != nil || !ok || st.Holder != l.holder {
		return err
	}
	return os.Remove(l.path)
}

// WaitFileLeaseStale blocks until the lease file's claim is stale — the
// standby's takeover trigger — checking every ttl/4, and at most once a
// millisecond. A missing file counts as stale only after a full ttl of
// observation (covering the startup race where the standby polls before
// the primary's first claim lands). Returns ctx.Err() on cancellation.
func WaitFileLeaseStale(ctx context.Context, path string, ttl time.Duration) error {
	var missingSince time.Time
	t := time.NewTicker(max(ttl/4, time.Millisecond))
	defer t.Stop()
	for {
		st, ok, err := ReadFileLease(path)
		if err != nil {
			return err
		}
		now := time.Now()
		if !ok {
			if missingSince.IsZero() {
				missingSince = now
			} else if now.Sub(missingSince) >= ttl {
				return nil
			}
		} else {
			missingSince = time.Time{}
			if st.Expired(now) {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}
