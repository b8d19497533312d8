package ldp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// Version is the build's release stamp, injected at link time:
//
//	go build -ldflags "-X repro.Version=v1.4.0" ./cmd/...
//
// Left empty, BuildInfo falls back to the module version and VCS facts Go
// embeds via debug.ReadBuildInfo, and finally to "(devel)". Every cmd binary
// surfaces it behind -version; servers expose it in /healthz and as the
// ldp_build_info metric.
var Version string

// Build describes the running binary: the resolved version plus the
// toolchain and VCS facts worth echoing in health endpoints and metrics, and
// which inner-loop kernel the optimizer's products run on this machine
// ("avx2" or "go": same results, different timings — a recorded number is
// reproducible only with it).
type Build struct {
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision,omitempty"`
	Time      string `json:"time,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
	Kernel    string `json:"kernel"`
}

var (
	buildOnce sync.Once
	buildInfo Build
)

// BuildInfo resolves the binary's build identity once: the -ldflags Version
// when stamped, else the main module version, plus VCS revision/time/dirty
// facts when the binary was built inside a checkout.
func BuildInfo() Build {
	buildOnce.Do(func() {
		buildInfo = Build{Version: Version, GoVersion: runtime.Version(), Kernel: linalg.Kernel()}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			if buildInfo.Version == "" {
				buildInfo.Version = "(devel)"
			}
			return
		}
		if buildInfo.Version == "" {
			buildInfo.Version = bi.Main.Version
		}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				buildInfo.Revision = s.Value
			case "vcs.time":
				buildInfo.Time = s.Value
			case "vcs.modified":
				buildInfo.Modified = s.Value == "true"
			}
		}
		if buildInfo.Version == "" {
			buildInfo.Version = "(devel)"
		}
	})
	return buildInfo
}

// registerBuildInfo pins the binary's identity as the conventional
// ldp_build_info gauge: constant 1, identity in the labels, so a fleet
// dashboard can group shards by the build they run.
func registerBuildInfo(reg *obs.Registry) {
	b := BuildInfo()
	reg.GaugeVec("ldp_build_info",
		"Build identity of the serving binary; value is always 1, the identity is in the labels.",
		"version", "go_version", "revision").With(b.Version, b.GoVersion, b.Revision).Set(1)
}

// VersionString renders the one-line identity the cmd binaries print for
// -version: version, Go toolchain, a short revision when known, and the
// kernel.
func VersionString() string {
	b := BuildInfo()
	s := fmt.Sprintf("%s %s", b.Version, b.GoVersion)
	if b.Revision != "" {
		rev := b.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		if b.Modified {
			rev += "-dirty"
		}
		s += " " + rev
	}
	return s + " kernel=" + b.Kernel
}
