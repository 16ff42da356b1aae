package fracture

import (
	"fmt"
	"sync"
	"time"
)

// AutoMergeOptions tune the background merger.
//
// A merge the count trigger starts is partial while the fractures are
// small: as long as their combined on-disk bytes stay below an eighth
// of main's, it folds them into one new fracture and leaves main
// untouched; from an eighth on, it folds them into a new main. A merge
// with fewer than two fractures to fold is always a full fold, so
// MaxFractures 1 rewrites main every time.
type AutoMergeOptions struct {
	// MaxFractures triggers a merge when the fracture count reaches
	// this value. 0 disables the count trigger.
	MaxFractures int
	// MaxFractureBytes triggers a full merge into main when the total
	// on-disk size of the fractures reaches this value. 0 disables the
	// size trigger.
	MaxFractureBytes int64
	// Interval is the polling period between threshold checks; flushes
	// additionally kick an immediate check. Default 100ms.
	Interval time.Duration
}

// autoMerger is the background merge goroutine's handle.
type autoMerger struct {
	opts  AutoMergeOptions
	stop  chan struct{}
	kicks chan struct{}
	wg    sync.WaitGroup

	errMu sync.Mutex
	err   error // first background merge failure
}

// kick requests an immediate threshold check (non-blocking).
func (a *autoMerger) kick() {
	select {
	case a.kicks <- struct{}{}:
	default:
	}
}

// StartAutoMerge launches a background goroutine that merges the store
// whenever the fracture count or total fracture size crosses the given
// thresholds: into a new main, or while the fractures are small next to
// main into one new fracture (see AutoMergeOptions). Queries keep
// running during a background merge and in-flight ones finish on the
// generation they started on; the swap to the merged partition is
// atomic. At least one threshold must be set. Returns an error if an
// auto-merger is already running.
func (s *Store) StartAutoMerge(opts AutoMergeOptions) error {
	if opts.MaxFractures <= 0 && opts.MaxFractureBytes <= 0 {
		return fmt.Errorf("fracture: auto-merge needs MaxFractures or MaxFractureBytes")
	}
	if opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	am := &autoMerger{
		opts:  opts,
		stop:  make(chan struct{}),
		kicks: make(chan struct{}, 1),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.am != nil {
		s.mu.Unlock()
		return fmt.Errorf("fracture: auto-merge already running on %q", s.name)
	}
	s.am = am
	s.mu.Unlock()

	am.wg.Add(1)
	go func() {
		defer am.wg.Done()
		ticker := time.NewTicker(am.opts.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-am.stop:
				return
			case <-ticker.C:
			case <-am.kicks:
			}
			due, full := s.mergeDue(am.opts)
			if !due {
				continue
			}
			if err := s.merge(!full); err != nil {
				am.errMu.Lock()
				if am.err == nil {
					am.err = err
				}
				am.errMu.Unlock()
				// Disarm so flush kicks stop going nowhere and a
				// later StartAutoMerge can re-arm; the error stays
				// retrievable through StopAutoMerge.
				s.mu.Lock()
				if s.am == am {
					s.am = nil
					s.amFailed = am
				}
				s.mu.Unlock()
				return
			}
		}
	}()
	return nil
}

// mergeDue checks the auto-merge thresholds: whether a merge is due,
// and whether it must be a full fold because the size trigger fired.
func (s *Store) mergeDue(opts AutoMergeOptions) (due, full bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if opts.MaxFractureBytes > 0 && s.fractureBytesLocked() >= opts.MaxFractureBytes {
		return true, true
	}
	return opts.MaxFractures > 0 && len(s.fractures) >= opts.MaxFractures, false
}

// StopAutoMerge stops the background merger, waits for any in-progress
// merge to finish, and returns the first error a background merge hit
// (nil if none, or if no merger was running). A merger that already
// died on a merge error is reported here too. Safe to call twice.
func (s *Store) StopAutoMerge() error {
	s.mu.Lock()
	am := s.am
	if am == nil {
		am = s.amFailed
	}
	s.am = nil
	s.amFailed = nil
	s.mu.Unlock()
	if am == nil {
		return nil
	}
	close(am.stop)
	am.wg.Wait()
	am.errMu.Lock()
	defer am.errMu.Unlock()
	return am.err
}
