package fracture

import (
	"fmt"
	"sync"
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
	// this value. It must be positive.
	MaxFractures int
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

// kick requests a threshold check (non-blocking). A kick that finds
// one already pending is dropped: the pending check sees the same
// state.
func (a *autoMerger) kick() {
	select {
	case a.kicks <- struct{}{}:
	default:
	}
}

// StartAutoMerge launches a background goroutine that merges the store
// whenever the fracture count reaches opts.MaxFractures: into a new
// main, or while the fractures are small next to main into one new
// fracture (see AutoMergeOptions). The count changes only at a flush or
// a merge, so the merger checks it when it starts, after every flush
// and after each of its own merges; it never polls. Queries keep
// running during a background merge and in-flight ones finish on the
// generation they started on; the swap to the merged partition is
// atomic. Returns an error if an auto-merger is already running.
func (s *Store) StartAutoMerge(opts AutoMergeOptions) error {
	if opts.MaxFractures <= 0 {
		return fmt.Errorf("fracture: auto-merge needs MaxFractures > 0, got %d", opts.MaxFractures)
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

	am.kick() // the fractures already on disk may be due
	am.wg.Add(1)
	go func() {
		defer am.wg.Done()
		for {
			select {
			case <-am.stop:
				return
			case <-am.kicks:
			}
			if !s.mergeDue(am.opts) {
				continue
			}
			if err := s.merge(true); err != nil {
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
			am.kick() // a partial fold may leave a merge due
		}
	}()
	return nil
}

// mergeDue reports whether the fracture count has reached the
// trigger.
func (s *Store) mergeDue(opts AutoMergeOptions) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.parts)-1 >= opts.MaxFractures
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
