//go:build !unix

package resilience

// lockClaimDir takes no lock where there is no flock: two processes claiming
// a campaign at the same instant can both find it free.
func lockClaimDir(string) (unlock func() error, err error) { return func() error { return nil }, nil }
