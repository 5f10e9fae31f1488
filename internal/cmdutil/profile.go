package cmdutil

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// ProfileFlags are the host-clock profiling flags of op2ca-run and
// op2ca-bench: where the time of a run goes on the machine executing it,
// as opposed to -profile's virtual-time critical path.
type ProfileFlags struct {
	CPU  string
	Mem  string
	Exec string
}

// Register declares -cpuprofile, -memprofile and -exectrace on fs.
func (p *ProfileFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a host CPU profile of the run to this file (inspect with go tool pprof)")
	fs.StringVar(&p.Mem, "memprofile", "", "write a host heap profile to this file when the run completes")
	fs.StringVar(&p.Exec, "exectrace", "", "write a Go execution trace of the run to this file (inspect with go tool trace)")
}

// Start begins the CPU profile and the execution trace when they were asked
// for. The returned stop ends them and writes the heap profile (after a
// collection, so in-use numbers are live memory); call it once, when the
// work to profile is done. With no flag set both calls do nothing.
func (p *ProfileFlags) Start() (stop func() error, err error) {
	var cpu, exec *os.File
	if p.CPU != "" {
		if cpu, err = os.Create(p.CPU); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	if p.Exec != "" {
		if exec, err = os.Create(p.Exec); err == nil {
			if err = trace.Start(exec); err != nil {
				exec.Close()
			}
		}
		if err != nil {
			if cpu != nil {
				pprof.StopCPUProfile()
				cpu.Close()
			}
			return nil, err
		}
	}
	return func() error {
		if exec != nil {
			trace.Stop()
			if err := exec.Close(); err != nil {
				return err
			}
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if p.Mem == "" {
			return nil
		}
		f, err := os.Create(p.Mem)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
