package main

import (
	"sync"
	"time"

	"timeprot/internal/attacks"
	"timeprot/internal/experiment/store"
)

// Entry kinds of the content-addressed store, in CellStore method order.
const (
	kindCell = iota
	kindProof
	kindConform
	kindDiscover
	numKinds
)

var kindNames = [numKinds]string{"cell", "proof", "conform", "discover"}

// kindStats is the traffic one entry kind saw.
type kindStats struct {
	Gets, Hits, Puts, FailedPuts int
	GetTimes, PutTimes           []time.Duration
}

// timingStore is a store.CellStore decorator that counts and times the
// eight typed Get/Put methods per entry kind, with hits and failed
// puts. Everything else passes straight through to the wrapped store,
// and no call's result is touched, so reports made through it are the
// reports made without it.
type timingStore struct {
	store.CellStore

	mu    sync.Mutex
	kinds [numKinds]kindStats
}

func newTimingStore(st store.CellStore) *timingStore { return &timingStore{CellStore: st} }

func (s *timingStore) observeGet(kind int, start time.Time, hit bool) {
	d := time.Since(start)
	s.mu.Lock()
	k := &s.kinds[kind]
	k.Gets++
	if hit {
		k.Hits++
	}
	k.GetTimes = append(k.GetTimes, d)
	s.mu.Unlock()
}

func (s *timingStore) observePut(kind int, start time.Time, err error) {
	d := time.Since(start)
	s.mu.Lock()
	k := &s.kinds[kind]
	k.Puts++
	if err != nil {
		k.FailedPuts++
	}
	k.PutTimes = append(k.PutTimes, d)
	s.mu.Unlock()
}

// snapshot copies the per-kind statistics.
func (s *timingStore) snapshot() [numKinds]kindStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.kinds
	for i := range out {
		out[i].GetTimes = append([]time.Duration(nil), out[i].GetTimes...)
		out[i].PutTimes = append([]time.Duration(nil), out[i].PutTimes...)
	}
	return out
}

// total folds every kind into one.
func (s *timingStore) total() kindStats {
	var t kindStats
	for _, k := range s.snapshot() {
		t.Gets += k.Gets
		t.Hits += k.Hits
		t.Puts += k.Puts
		t.FailedPuts += k.FailedPuts
		t.GetTimes = append(t.GetTimes, k.GetTimes...)
		t.PutTimes = append(t.PutTimes, k.PutTimes...)
	}
	return t
}

func (s *timingStore) Get(k store.Key) (attacks.Row, bool) {
	t := time.Now()
	v, ok := s.CellStore.Get(k)
	s.observeGet(kindCell, t, ok)
	return v, ok
}

func (s *timingStore) Put(k store.Key, row attacks.Row) error {
	t := time.Now()
	err := s.CellStore.Put(k, row)
	s.observePut(kindCell, t, err)
	return err
}

func (s *timingStore) GetProof(k store.Key) (store.ProofV1, bool) {
	t := time.Now()
	v, ok := s.CellStore.GetProof(k)
	s.observeGet(kindProof, t, ok)
	return v, ok
}

func (s *timingStore) PutProof(k store.Key, p store.ProofV1) error {
	t := time.Now()
	err := s.CellStore.PutProof(k, p)
	s.observePut(kindProof, t, err)
	return err
}

func (s *timingStore) GetConform(k store.Key) (store.ConformV1, bool) {
	t := time.Now()
	v, ok := s.CellStore.GetConform(k)
	s.observeGet(kindConform, t, ok)
	return v, ok
}

func (s *timingStore) PutConform(k store.Key, c store.ConformV1) error {
	t := time.Now()
	err := s.CellStore.PutConform(k, c)
	s.observePut(kindConform, t, err)
	return err
}

func (s *timingStore) GetDiscover(k store.Key) (store.DiscoverV1, bool) {
	t := time.Now()
	v, ok := s.CellStore.GetDiscover(k)
	s.observeGet(kindDiscover, t, ok)
	return v, ok
}

func (s *timingStore) PutDiscover(k store.Key, d store.DiscoverV1) error {
	t := time.Now()
	err := s.CellStore.PutDiscover(k, d)
	s.observePut(kindDiscover, t, err)
	return err
}
