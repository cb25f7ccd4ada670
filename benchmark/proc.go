package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
)

// clockTicksPerSecond is USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat; Linux fixes it at 100 for every architecture Go runs on.
const clockTicksPerSecond = 100

// cpuSeconds reads utime+stime of a process from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(data, ')')
	fields := bytes.Fields(data[i+1:])
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseFloat(string(fields[11]), 64) // field 14
	stime, err2 := strconv.ParseFloat(string(fields[12]), 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unparsable CPU times", pid)
	}
	return (utime + stime) / clockTicksPerSecond, nil
}

// selfCPUSeconds is utime+stime of this process at microsecond
// resolution, fine enough to charge CPU time to a single round.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(string(f[0]), 64)
			if err != nil {
				break
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}
