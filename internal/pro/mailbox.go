package pro

import "sync"

// message is one point-to-point transmission.
type message struct {
	from    int
	payload any
	size    int
}

// mailbox is the unbounded receive queue of one processor. A single
// mutex-protected queue keeps per-source FIFO order (required for
// deterministic matched receives) while still supporting receive-from-any
// (required by the redistribution step of Algorithm 6, where the set of
// senders is data dependent).
type mailbox struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []message
	poisoned bool
}

func newMailbox(p int) *mailbox {
	mb := &mailbox{queue: make([]message, 0, p)}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// push appends a message and wakes any waiting receiver.
func (mb *mailbox) push(msg message) {
	mb.mu.Lock()
	mb.queue = append(mb.queue, msg)
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// popFrom blocks until a message from the given source is available and
// removes the earliest such message (per-source FIFO).
func (mb *mailbox) popFrom(from int) message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		for i := range mb.queue {
			if mb.queue[i].from == from {
				msg := mb.queue[i]
				mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
				return msg
			}
		}
		if mb.poisoned {
			panic(errPoisoned)
		}
		mb.cond.Wait()
	}
}

// popAny blocks until any message is available and removes the oldest.
func (mb *mailbox) popAny() message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for len(mb.queue) == 0 {
		if mb.poisoned {
			panic(errPoisoned)
		}
		mb.cond.Wait()
	}
	msg := mb.queue[0]
	mb.queue = mb.queue[1:]
	return msg
}

// poison wakes all blocked receivers with a panic, used to unwind the
// machine when some processor has already panicked.
func (mb *mailbox) poison() {
	mb.mu.Lock()
	mb.poisoned = true
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// unpoison clears the poisoned state (between Run invocations).
func (mb *mailbox) unpoison() {
	mb.mu.Lock()
	mb.poisoned = false
	mb.queue = mb.queue[:0]
	mb.mu.Unlock()
}

// errPoisoned is the panic payload used to unwind blocked processors
// after another processor failed.
type poisonError struct{}

func (poisonError) Error() string {
	return "pro: machine poisoned by a failing processor"
}

var errPoisoned = poisonError{}
