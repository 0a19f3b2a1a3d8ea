package checkpoint

import (
	"os"
	"strconv"
	"strings"
	"syscall"
)

// CrashEnv names the test-only environment variable that kills the
// process at a chosen commit point, for the kill/resume chaos harness
// (internal/faultinject). Values:
//
//	"N"       — commit iteration record N fully (write + fsync), then
//	            SIGKILL the process: the journal ends on a good record.
//	"N:torn"  — write only a prefix of iteration record N's frame, fsync
//	            that, then SIGKILL: the journal ends on a torn record
//	            that replay must truncate.
//
// SIGKILL (not exit) so no deferred cleanup runs — the on-disk state is
// exactly what a power cut or OOM kill would leave.
const CrashEnv = "PREDABS_CRASH_COMMIT"

// crashHook implements CrashEnv. Called with the commit ordinal and the
// marshaled payload BEFORE the real frame is appended; on a match it
// appends the frame itself (whole, or torn: the header and half the
// payload) and then kills the process.
func crashHook(commit int, l *Log, payload []byte) {
	v := os.Getenv(CrashEnv)
	if v == "" {
		return
	}
	spec, torn := strings.CutSuffix(v, ":torn")
	n, err := strconv.Atoi(spec)
	if err != nil || n != commit {
		return
	}
	if !torn {
		l.Append(payload)
		kill()
	}
	hdr := frameHeader(payload)
	l.f.Write(hdr[:])
	l.f.Write(payload[:len(payload)/2]) // half a record, then the lights go out
	l.f.Sync()
	kill()
}

func kill() {
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
	// SIGKILL is not deliverable to self synchronously in all cases;
	// block forever rather than continue past the crash point.
	select {}
}
