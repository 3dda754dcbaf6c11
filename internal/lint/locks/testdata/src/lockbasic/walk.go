package lockbasic

import "sync"

// journal's AB half runs in a method, its BA half in a goroutine's
// function literal: the literal's acquisitions order like any function's.
type journal struct {
	a, b sync.Mutex
}

func (j *journal) ab() {
	j.a.Lock()
	j.b.Lock() // want `lock-order cycle: acquiring lockbasic.journal.b while holding lockbasic.journal.a`
	j.b.Unlock()
	j.a.Unlock()
}

func (j *journal) spawn() {
	go func() {
		j.b.Lock()
		j.a.Lock() // want `lock-order cycle: acquiring lockbasic.journal.a while holding lockbasic.journal.b`
		j.a.Unlock()
		j.b.Unlock()
	}()
}

// ledger's AB half follows the early-return unlock: the branch that
// unlocks and returns does not release a for the path below it.
type ledger struct {
	a, b sync.Mutex
}

func (l *ledger) abAfterEarlyReturn(fail bool) {
	l.a.Lock()
	if fail {
		l.a.Unlock()
		return
	}
	l.b.Lock() // want `lock-order cycle: acquiring lockbasic.ledger.b while holding lockbasic.ledger.a`
	l.b.Unlock()
	l.a.Unlock()
}

func (l *ledger) ba() {
	l.b.Lock()
	l.a.Lock() // want `lock-order cycle: acquiring lockbasic.ledger.a while holding lockbasic.ledger.b`
	l.a.Unlock()
	l.b.Unlock()
}
