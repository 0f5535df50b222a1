package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostCPU reads the host's cumulative CPU time and the part of it the
// hypervisor stole (time a virtual CPU was runnable but not running),
// in clock ticks, from /proc/stat. ok is false where that is unknown.
func hostCPU() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealSampler records the host's steal share of each slice of a
// window: slice i covers [start+i*slice, start+(i+1)*slice). A share it
// cannot read counts as 0.
type stealSampler struct {
	stop chan struct{}
	done chan []float64
}

func startStealSampler(start time.Time, slice time.Duration) *stealSampler {
	s := &stealSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var out []float64
		st0, tot0, ok := hostCPU()
		record := func() {
			share := 0.0
			if st1, tot1, ok1 := hostCPU(); ok && ok1 && tot1 > tot0 {
				share = float64(st1-st0) / float64(tot1-tot0)
				st0, tot0 = st1, tot1
			}
			out = append(out, share)
		}
		for i := 1; ; i++ {
			boundary := start.Add(time.Duration(i) * slice)
			select {
			case <-s.stop:
				if !time.Now().Before(boundary) {
					record() // the slice ended just before the stop
				}
				s.done <- out
				return
			case <-time.After(time.Until(boundary)):
				record()
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the slices that completed.
func (s *stealSampler) finish() []float64 {
	close(s.stop)
	return <-s.done
}

// maxSliceSteal is the steal share above which a slice counts as
// disturbed: the hypervisor ran someone else on this machine's CPUs for
// that share of the slice, which no change to the program can cause.
const maxSliceSteal = 0.05

// quietSlices returns the indices of the slices to summarize: those
// whose steal share is at most maxSliceSteal, or the quietest quarter
// (at least 3) when fewer are that quiet.
func quietSlices(steal []float64) []int {
	idx := make([]int, len(steal))
	var quiet []int
	for i, s := range steal {
		idx[i] = i
		if s <= maxSliceSteal {
			quiet = append(quiet, i)
		}
	}
	if want := min(len(steal), max(3, len(steal)/4)); len(quiet) < want {
		sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
		return idx[:want]
	}
	return quiet
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
