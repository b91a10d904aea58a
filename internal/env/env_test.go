package env

import (
	"sync"
	"testing"
	"time"

	"adamant/internal/sim"
)

func TestSimEnvAfterAndNow(t *testing.T) {
	k := sim.New(1)
	e := NewSim(k)
	var seen time.Time
	e.After(25*time.Millisecond, func() { seen = e.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Epoch.Add(25 * time.Millisecond); !seen.Equal(want) {
		t.Errorf("callback saw %v, want %v", seen, want)
	}
}

func TestSimEnvTimerStop(t *testing.T) {
	k := sim.New(1)
	e := NewSim(k)
	fired := false
	tm := e.After(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Error("Stop returned false on pending timer")
	}
	if tm.Stop() {
		t.Error("second Stop returned true")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestSimEnvPostRunsInOrder(t *testing.T) {
	k := sim.New(1)
	e := NewSim(k)
	var order []int
	e.Post(func() { order = append(order, 1) })
	e.Post(func() { order = append(order, 2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("order = %v", order)
	}
}

func TestSimEnvKernelAccessor(t *testing.T) {
	k := sim.New(1)
	if NewSim(k).Kernel() != k {
		t.Error("Kernel() did not return the wrapped kernel")
	}
}

func TestRealEnvPostSerializes(t *testing.T) {
	e := NewReal(1)
	defer e.Close()
	var mu sync.Mutex
	running := 0
	maxRunning := 0
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		e.Post(func() {
			mu.Lock()
			running++
			if running > maxRunning {
				maxRunning = running
			}
			mu.Unlock()
			time.Sleep(100 * time.Microsecond)
			mu.Lock()
			running--
			mu.Unlock()
			wg.Done()
		})
	}
	wg.Wait()
	if maxRunning != 1 {
		t.Errorf("observed %d concurrent callbacks, want 1", maxRunning)
	}
}

func TestRealEnvAfterFires(t *testing.T) {
	e := NewReal(1)
	defer e.Close()
	ch := make(chan time.Time, 1)
	start := time.Now()
	e.Post(func() { e.After(10*time.Millisecond, func() { ch <- time.Now() }) })
	e.Barrier()
	select {
	case at := <-ch:
		if d := at.Sub(start); d < 5*time.Millisecond {
			t.Errorf("fired after %v, want >= ~10ms", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
}

func TestRealEnvTimerStop(t *testing.T) {
	e := NewReal(1)
	defer e.Close()
	fired := make(chan struct{}, 1)
	var tm Timer
	e.Post(func() { tm = e.After(20*time.Millisecond, func() { fired <- struct{}{} }) })
	e.Barrier()
	var stopped bool
	e.Post(func() { stopped = tm.Stop() })
	e.Barrier()
	if !stopped {
		t.Error("Stop returned false on pending timer")
	}
	select {
	case <-fired:
		t.Error("stopped timer fired")
	case <-time.After(60 * time.Millisecond):
	}
}

func TestRealEnvBarrier(t *testing.T) {
	e := NewReal(1)
	defer e.Close()
	done := false
	e.Post(func() { done = true })
	e.Barrier()
	if !done {
		t.Error("Barrier returned before earlier callback completed")
	}
}

func TestRealEnvCloseIdempotent(t *testing.T) {
	e := NewReal(1)
	e.Close()
	e.Close() // must not panic or hang
	e.Post(func() { t.Error("post after close ran") })
	e.Barrier() // no-op after close
}

func TestRealEnvRandDeterministicBySeed(t *testing.T) {
	a := NewReal(7)
	b := NewReal(7)
	defer a.Close()
	defer b.Close()
	ra, rb := a.Rand("x"), b.Rand("x")
	for i := 0; i < 5; i++ {
		if ra.Int63() != rb.Int63() {
			t.Fatal("same seed+name should give identical streams")
		}
	}
}
