package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// rssWindow is the span over which one peak-RSS reading is taken.
const rssWindow = 500 * time.Millisecond

// rssWindows measures the process's peak resident set size per window
// of the measured phase: it resets the kernel's high-water mark
// (VmHWM) at the start of each window and reads it at the end. A
// maximum over the whole run would hinge on whether two workers
// happened to hold their largest functions at the same instant; the
// median window peak does not.
type rssWindows struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	err   error
}

func startRSSWindows() *rssWindows {
	w := &rssWindows{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(rssWindow)
		defer t.Stop()
		for {
			if w.err = resetPeakRSS(); w.err != nil {
				return
			}
			select {
			case <-t.C:
			case <-w.stop:
				w.read()
				return
			}
			w.read()
		}
	}()
	return w
}

func (w *rssWindows) read() {
	if mb, err := peakRSSMB(); err != nil {
		w.err = err
	} else {
		w.peaks = append(w.peaks, mb)
	}
}

// finish stops the sampler and returns the median window peak in MB.
// If the high-water mark cannot be reset, it falls back to the
// process's peak since start and says so in o.
func (w *rssWindows) finish(o *outcome) float64 {
	close(w.stop)
	<-w.done
	if w.err != nil || len(w.peaks) == 0 {
		mb, err := peakRSSMB()
		if err != nil {
			return 0
		}
		o.note("peak_rss_mb: per-window peaks unavailable (%v); process peak reported", w.err)
		return mb
	}
	o.note("peak_rss_mb: median of %d windows' peak RSS (%v each), max %.1f MB", len(w.peaks), rssWindow, percentile(w.peaks, 100))
	return median(w.peaks)
}

// resetPeakRSS resets this process's VmHWM (clear_refs value 5).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads this process's VmHWM.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
