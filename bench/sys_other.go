//go:build !linux

package bench

func fsType(string) string { return "unknown" }

// processCPUNs is unavailable off Linux; the CPU-based ledger columns read 0.
func processCPUNs() int64 { return 0 }

// stolenNs is unavailable off Linux: no repetition is ever set aside.
func stolenNs() int64 { return 0 }
