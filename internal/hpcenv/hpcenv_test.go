package hpcenv

import (
	"strings"
	"testing"
)

// buildEnv installs and loads the standard stack on a host.
func buildEnv(t *testing.T, h Host, load ...string) Host {
	t.Helper()
	for _, m := range StandardModules() {
		if err := h.Env.Install(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range load {
		if err := h.Env.Load(name); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func TestModuleDependencyResolution(t *testing.T) {
	h := buildEnv(t, VayuHost(), "chaste-deps")
	loaded := strings.Join(h.Env.Loaded(), " ")
	for _, want := range []string{"intel-cc/11.1.046", "openmpi/1.4.3", "petsc/3.1", "chaste-deps/2.1"} {
		if !strings.Contains(loaded, want) {
			t.Fatalf("missing %q in loaded set %q", want, loaded)
		}
	}
	// Requirements must precede dependents.
	idx := func(s string) int { return strings.Index(loaded, s) }
	if idx("openmpi") > idx("petsc") {
		t.Fatal("openmpi must load before petsc")
	}
}

func TestLoadMissingModule(t *testing.T) {
	h := VayuHost()
	if err := h.Env.Load("nonexistent"); err == nil {
		t.Fatal("loading an uninstalled module should fail")
	}
}

func TestLoadIdempotent(t *testing.T) {
	h := buildEnv(t, VayuHost(), "openmpi", "openmpi")
	count := 0
	for _, k := range h.Env.Loaded() {
		if strings.HasPrefix(k, "openmpi/") {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("openmpi loaded %d times", count)
	}
}

func TestInstallValidation(t *testing.T) {
	e := NewEnvironment()
	if err := e.Install(Module{Name: "x"}); err == nil {
		t.Fatal("module without version should fail")
	}
}

func TestHostTunedBuildUsesSSE4(t *testing.T) {
	vayu := buildEnv(t, VayuHost(), "um-deps")
	icc := Compiler{Name: "ifort", Version: "11.1.072"}
	bin, err := icc.Build("um", vayu, BuildOptions{HostTuned: true, Modules: []string{"um-deps"}})
	if err != nil {
		t.Fatal(err)
	}
	if !bin.Needs.Has(SSE42) {
		t.Fatal("host-tuned build on Vayu should use SSE4.2")
	}
}

func TestBuildRequiresLoadedModules(t *testing.T) {
	vayu := buildEnv(t, VayuHost()) // nothing loaded
	icc := Compiler{Name: "icpc", Version: "11.1.046"}
	if _, err := icc.Build("chaste", vayu, BuildOptions{Modules: []string{"chaste-deps"}}); err == nil {
		t.Fatal("building against an unloaded module should fail")
	}
}

func TestSSE4BinaryFailsOnDCCGuest(t *testing.T) {
	// The paper's portability barrier: a Vayu-tuned binary dies on the
	// DCC guest whose virtual CPU masks SSE4.
	vayu := buildEnv(t, VayuHost(), "um-deps")
	icc := Compiler{Name: "ifort", Version: "11.1.072"}
	tuned, err := icc.Build("um", vayu, BuildOptions{HostTuned: true, Modules: []string{"um-deps"}})
	if err != nil {
		t.Fatal(err)
	}
	img := Package("hpc-env-v1", "CentOS 5.7", vayu, tuned)
	dep := Deploy(img, DCCHost())
	err = dep.Exec("um")
	if err == nil {
		t.Fatal("SSE4 binary must SIGILL on the DCC guest")
	}
	if !strings.Contains(err.Error(), "SIGILL") || !strings.Contains(err.Error(), "sse4") {
		t.Fatalf("error should explain the SIGILL: %v", err)
	}
	// The same image runs on EC2, whose HVM guests expose SSE4.
	if err := Deploy(img, EC2Host()).Exec("um"); err != nil {
		t.Fatalf("tuned binary should run on EC2: %v", err)
	}
}

func TestPortableBuildRunsEverywhere(t *testing.T) {
	// "...which can be avoided by the selection of suitable compilation
	// switches."
	vayu := buildEnv(t, VayuHost(), "um-deps", "chaste-deps")
	icc := Compiler{Name: "ifort", Version: "11.1.072"}
	portable, err := icc.Build("um", vayu, BuildOptions{Modules: []string{"um-deps"}})
	if err != nil {
		t.Fatal(err)
	}
	img := Package("hpc-env-v2", "CentOS 5.7", vayu, portable)
	for _, target := range []Host{DCCHost(), EC2Host(), VayuHost()} {
		if err := Deploy(img, target).Exec("um"); err != nil {
			t.Fatalf("portable binary failed on %s: %v", target.Name, err)
		}
	}
}

func TestImageEnvironmentIsolation(t *testing.T) {
	// The image carries a snapshot: later changes to the build host do
	// not affect deployed images, and missing modules are detected.
	vayu := buildEnv(t, VayuHost(), "openmpi")
	icc := Compiler{Name: "icpc", Version: "11.1.046"}
	bin, err := icc.Build("bench", vayu, BuildOptions{Modules: []string{"openmpi"}})
	if err != nil {
		t.Fatal(err)
	}
	img := Package("img", "CentOS 5.7", vayu, bin)
	// A second binary whose module was never loaded into the image.
	orphan := bin
	orphan.App = "orphan"
	orphan.Modules = []string{"petsc"}
	img.Binaries = append(img.Binaries, orphan)
	dep := Deploy(img, EC2Host())
	if err := dep.Exec("bench"); err != nil {
		t.Fatal(err)
	}
	if err := dep.Exec("orphan"); err == nil {
		t.Fatal("binary with unpackaged module should fail")
	}
	if err := dep.Exec("nosuch"); err == nil {
		t.Fatal("unknown binary should fail")
	}
}

func TestFeatureSetMissing(t *testing.T) {
	have := NewFeatureSet(SSE2, SSE3)
	need := NewFeatureSet(SSE2, SSE42, AVX)
	missing := have.Missing(need)
	if len(missing) != 2 || missing[0] != AVX || missing[1] != SSE42 {
		t.Fatalf("missing = %v", missing)
	}
}
