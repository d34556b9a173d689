package bench

import (
	"bytes"
	"os"
	"strconv"
	"syscall"
	"time"
)

// fsType names the filesystem holding path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return "unknown"
}

// processCPUNs is the process's user+system CPU time so far.
func processCPUNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// stolenNs is the CPU time the hypervisor has given to other guests so far,
// summed over this machine's CPUs: the eighth value of /proc/stat's first
// line, in 10 ms ticks. It reads 0 where the kernel reports none.
func stolenNs() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(string(fields[8]), 10, 64)
	return ticks * int64(10*time.Millisecond)
}
