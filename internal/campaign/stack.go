package campaign

import (
	"fmt"
	"runtime"
	"strings"
)

// moduleRoot is the path prefix the runtime reports for this module's
// source files, taken from this file's own path.
var moduleRoot = func() string {
	_, file, _, _ := runtime.Caller(0)
	return strings.TrimSuffix(file, "internal/campaign/stack.go")
}()

// crashStack returns the panicking goroutine's stack for Attempt.Stack.
// It must be called directly from the recovering deferred function. It
// keeps only this module's frames, each as its function name and
// module-relative file:line, so the text is a function of the code
// alone: goroutine ids, argument words, PC offsets and the build
// directory are left out, and so are runtime and standard-library
// frames, whose lines change with the toolchain. The same crash
// therefore seals the same quarantine pack.
func crashStack() string {
	pcs := make([]uintptr, 64)
	// Skip runtime.Callers, crashStack and the deferred function.
	pcs = pcs[:runtime.Callers(3, pcs)]
	var b strings.Builder
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		if rel, ok := strings.CutPrefix(f.File, moduleRoot); ok && moduleRoot != "" {
			fmt.Fprintf(&b, "%s\n\t%s:%d\n", f.Function, rel, f.Line)
		}
		if !more {
			return b.String()
		}
	}
}
