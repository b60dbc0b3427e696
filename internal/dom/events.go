package dom

// DOM Level 3 event flow: capture phase from the root down, target
// phase, then bubbling back up. Both the XQuery engine (via the paper's
// "on event ... attach listener" syntax) and the JavaScript-style
// baseline register listeners through this interface, so a single
// dispatch serialises handlers from both languages exactly as §6.2
// describes ("the browser determines the order in which events are
// processed ... in the same way as ... if only JavaScript is used").

// EventPhase identifies the position of the dispatch when a listener
// fires.
type EventPhase int

// Event phases per DOM Level 3.
const (
	CapturePhase EventPhase = 1
	AtTarget     EventPhase = 2
	BubblePhase  EventPhase = 3
)

// Event carries the information passed to listeners. The fields mirror
// the DOM event object properties the paper queries ($evt/type,
// $evt/altKey, $evt/button, ...).
type Event struct {
	Type          string
	Target        *Node
	CurrentTarget *Node
	Phase         EventPhase

	// Input-device detail (zero unless the dispatcher sets them).
	AltKey   bool
	CtrlKey  bool
	ShiftKey bool
	MetaKey  bool
	Button   int // 0 none, 1 left, 2 middle, 3 right
	Key      string
	ClientX  int
	ClientY  int

	// Detail carries event-specific payload (e.g. the readyState and
	// result of an asynchronous call completion, §4.4).
	Detail map[string]string

	Bubbles    bool
	Cancelable bool

	stopped          bool
	defaultPrevented bool
}

// StopPropagation halts the dispatch after the current node's listeners.
func (e *Event) StopPropagation() { e.stopped = true }

// PreventDefault cancels the default action of a cancelable event.
func (e *Event) PreventDefault() {
	if e.Cancelable {
		e.defaultPrevented = true
	}
}

// DefaultPrevented reports whether PreventDefault was called.
func (e *Event) DefaultPrevented() bool { return e.defaultPrevented }

// Listener is an event callback.
type Listener func(*Event)

type listener struct {
	typ     string
	capture bool
	fn      Listener
	id      any // identity token for removal (e.g. an XQuery QName)
}

// AddEventListener registers fn for events of the given type on n.
// The id token identifies the registration for RemoveEventListener;
// registering the same (type, capture, id) twice is a no-op when id is
// non-nil, matching addEventListener's duplicate suppression.
func (n *Node) AddEventListener(typ string, capture bool, id any, fn Listener) {
	if id != nil {
		for _, l := range n.listenerList() {
			if l.typ == typ && l.capture == capture && l.id == id {
				return
			}
		}
	}
	if n.listeners == nil {
		n.listeners = new([]*listener)
	}
	*n.listeners = append(*n.listeners, &listener{typ: typ, capture: capture, fn: fn, id: id})
}

// listenerList returns the listeners registered directly on n.
func (n *Node) listenerList() []*listener {
	if n.listeners == nil {
		return nil
	}
	return *n.listeners
}

// RemoveEventListener removes the registration with the matching
// (type, capture, id).
func (n *Node) RemoveEventListener(typ string, capture bool, id any) {
	ls := n.listenerList()
	for i, l := range ls {
		if l.typ == typ && l.capture == capture && l.id == id {
			*n.listeners = append(ls[:i], ls[i+1:]...)
			return
		}
	}
}

// ListenerCount returns the number of listeners of the given type
// registered directly on n (both phases).
func (n *Node) ListenerCount(typ string) int {
	c := 0
	for _, l := range n.listenerList() {
		if l.typ == typ {
			c++
		}
	}
	return c
}

// DispatchEvent runs the full capture/target/bubble flow for ev with n
// as the target. It returns false if a listener prevented the default
// action.
func (n *Node) DispatchEvent(ev *Event) bool {
	ev.Target = n
	// Ancestor chain, target first.
	var chain []*Node
	for a := n.parent; a != nil; a = a.parent {
		chain = append(chain, a)
	}
	// Capture: root towards target.
	ev.Phase = CapturePhase
	for i := len(chain) - 1; i >= 0 && !ev.stopped; i-- {
		chain[i].invoke(ev, true)
	}
	// Target.
	if !ev.stopped {
		ev.Phase = AtTarget
		n.invoke(ev, true)
		n.invoke(ev, false)
	}
	// Bubble: target towards root.
	if ev.Bubbles {
		ev.Phase = BubblePhase
		for i := 0; i < len(chain) && !ev.stopped; i++ {
			chain[i].invoke(ev, false)
		}
	}
	return !ev.defaultPrevented
}

func (n *Node) invoke(ev *Event, capture bool) {
	ev.CurrentTarget = n
	// Snapshot: listeners added during dispatch do not fire for this
	// event; removed ones are skipped via the live check below.
	snapshot := append([]*listener(nil), n.listenerList()...)
	for _, l := range snapshot {
		if ev.stopped {
			return
		}
		if l.typ != ev.Type || l.capture != capture {
			continue
		}
		if !n.hasListener(l) {
			continue
		}
		l.fn(ev)
	}
}

func (n *Node) hasListener(l *listener) bool {
	for _, x := range n.listenerList() {
		if x == l {
			return true
		}
	}
	return false
}
