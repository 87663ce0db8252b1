package rules

import (
	"fmt"
	"strconv"
)

// Notes are typed causes, rendered on read. Evaluation records which
// compile-time site explained the verdict and the one dynamic value the
// site names; the text is built only when a reader (/compliance, an audit
// report, the dashboard's violation list) asks for it. A check that is
// never explained pays for a small struct, not for fmt.

// noteSite is one place in a compiled control that can explain a verdict:
// the text before and after its dynamic argument, fixed at compile time.
// A site without an argument holds its whole text in pre.
type noteSite struct {
	pre, post string
	arg       noteArg
}

// noteArg is the kind of dynamic value a site renders between pre and
// post.
type noteArg uint8

const (
	argNone  noteArg = iota
	argNode          // cause.id: a node ID
	argCount         // cause.n
	argErr           // cause.err, rendered as %v
	argTrace         // the Result's own trace ID
)

// staticSite is a site whose whole text is known at compile time.
func staticSite(format string, args ...any) *noteSite {
	return &noteSite{pre: fmt.Sprintf(format, args...)}
}

// cause is one recorded note: its site and the value it names. Causes are
// read-only once recorded; a slice of them may be shared by results and
// binding memos.
type cause struct {
	site *noteSite
	id   string
	n    int
	err  error
}

// render builds the note's text; appID is the trace the result is about.
func (c *cause) render(appID string) string {
	s := c.site
	switch s.arg {
	case argNode:
		return s.pre + c.id + s.post
	case argCount:
		return s.pre + strconv.Itoa(c.n) + s.post
	case argErr:
		return s.pre + fmt.Sprint(c.err) + s.post
	case argTrace:
		return s.pre + appID + s.post
	default:
		return s.pre
	}
}

// Notes renders the explanations attached to the verdict, in the order
// evaluation recorded them: which variable bound nothing, which attribute
// was missing, which navigation was ambiguous. Any verdict may carry
// notes — a Satisfied scan can still note that a phrase had several
// candidates. The text is built on every call; nil when there is none.
func (r *Result) Notes() []string {
	if len(r.causes) == 0 {
		return nil
	}
	out := make([]string, len(r.causes))
	for i := range r.causes {
		out[i] = r.causes[i].render(r.AppID)
	}
	return out
}

// AddNote attaches a fixed explanation to the result, for evaluators that
// are not compiled rules.
func (r *Result) AddNote(text string) {
	r.causes = append(r.causes, cause{site: &noteSite{pre: text}})
}
