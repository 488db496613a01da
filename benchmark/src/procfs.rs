//! What the harness asks of the kernel: process CPU time, peak RSS, the
//! machine fingerprint printed in every output header, and one CPU to itself
//! for the single-threaded engines.

use std::fs;
use std::path::Path;

/// Kernel clock ticks per second. `/proc/self/stat` counts in USER_HZ,
/// which Linux fixes at 100 on every architecture this builds for.
const TICKS_PER_S: f64 = 100.0;

/// utime + stime (fields 14 and 15) of a `/proc/<pid>/stat` line, in ticks.
/// The command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is field 14.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU seconds this process (all threads, exited ones included) has used.
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_ticks(&stat).expect("utime/stime in /proc/self/stat") as f64 / TICKS_PER_S
}

/// `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kb(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// Start `VmHWM` again from the current resident set (`clear_refs` value 5,
/// Linux 4.0 on), so that the peak read at exit is the timed phase's and an
/// engine's memory is not hidden under set-up's training clips. `false` when
/// the kernel refuses; the peak then covers the whole process.
pub fn reset_peak_rss() -> bool {
    // Set-up's freed clips go back to the kernel first, or they would sit
    // in the allocator's arenas and count towards every later reading.
    #[cfg(target_env = "gnu")]
    // SAFETY: no pointer arguments; glibc walks its own arenas.
    unsafe {
        malloc_trim(0)
    };
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// CPU sets of up to 1024 CPUs, the size glibc's `cpu_set_t` has.
type CpuSet = [u64; 16];

#[cfg(target_env = "gnu")]
extern "C" {
    /// glibc: give freed heap pages back to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Lowest-numbered CPU in `set`.
pub fn first_cpu(set: &CpuSet) -> Option<usize> {
    let word = set.iter().position(|&w| w != 0)?;
    Some(word * 64 + set[word].trailing_zeros() as usize)
}

fn affinity() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is writable and `size_of_val` is its size in bytes; pid
    // 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

fn set_affinity(set: &CpuSet) -> bool {
    // SAFETY: `set` is readable and `size_of_val` is its size in bytes.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(set), set.as_ptr()) == 0 }
}

/// Run `f` with the calling thread pinned to the lowest-numbered CPU it is
/// allowed on, then give it its CPUs back. Also returns that CPU, or `None`
/// when the kernel refused and `f` ran unpinned. Threads `f` spawns inherit
/// the pin, so this is for the engines that run on the calling thread alone:
/// left to the scheduler, a single busy thread on this 2-vCPU guest is moved
/// between the CPUs every few seconds, and one deterministic DES run took
/// 48 ms pinned and anything from 50 to 98 ms unpinned.
pub fn on_one_cpu<T>(f: impl FnOnce() -> T) -> (Option<usize>, T) {
    let before = affinity();
    let cpu = before.as_ref().and_then(first_cpu).filter(|&cpu| {
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        set_affinity(&one)
    });
    let out = f();
    if let (Some(_), Some(before)) = (cpu, &before) {
        set_affinity(before);
    }
    (cpu, out)
}

/// First `model name` of a `/proc/cpuinfo` text.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    let line = cpuinfo.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| parse_cpu_model(&s))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the longest mount point that prefixes `path`, from a
/// `/proc/mounts` text.
pub fn parse_fs_type(mounts: &str, path: &Path) -> Option<String> {
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_ascii_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype)
}

/// Filesystem the checkpoint root lives on (`ckpt_fs` in the header).
pub fn fs_type_of(path: &Path) -> String {
    let abs = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|m| parse_fs_type(&m, &abs))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (bench (x) y) S 1 4242 4242 0 -1 4194560 1234 0 0 0 \
                    731 269 0 0 20 0 9 0 100 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1000));
        assert_eq!(parse_stat_cpu_ticks("4242 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123456));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn cpu_model_and_fs_type() {
        let cpuinfo = "processor\t: 0\nmodel name\t: Some CPU @ 2.00GHz\nflags\t: fpu\n";
        assert_eq!(
            parse_cpu_model(cpuinfo).as_deref(),
            Some("Some CPU @ 2.00GHz")
        );
        let mounts = "/dev/vda / ext4 rw 0 0\ntmpfs /dev/shm tmpfs rw 0 0\n";
        assert_eq!(
            parse_fs_type(mounts, Path::new("/dev/shm/x")).as_deref(),
            Some("tmpfs")
        );
        assert_eq!(
            parse_fs_type(mounts, Path::new("/root/repo")).as_deref(),
            Some("ext4")
        );
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn first_cpu_is_the_lowest_set_bit() {
        let mut set: CpuSet = [0; 16];
        assert_eq!(first_cpu(&set), None);
        set[1] = 0b1000;
        assert_eq!(first_cpu(&set), Some(67));
        set[0] = 0b110;
        assert_eq!(first_cpu(&set), Some(1));
    }

    #[test]
    fn one_cpu_inside_and_every_cpu_back_outside() {
        let cpus = |set: &CpuSet| set.iter().map(|w| w.count_ones()).sum::<u32>();
        // on a thread of its own: the pin must not touch other tests
        std::thread::spawn(move || {
            let before = affinity().expect("read own affinity");
            let (cpu, inside) = on_one_cpu(|| affinity().expect("read own affinity"));
            // a sandbox may forbid pinning; then nothing changes and `None` says so
            match cpu {
                Some(cpu) => {
                    assert_eq!(cpus(&inside), 1);
                    assert_eq!(first_cpu(&inside), Some(cpu));
                    assert_eq!(first_cpu(&before), Some(cpu));
                }
                None => assert_eq!(inside, before),
            }
            assert_eq!(affinity().expect("read own affinity"), before);
        })
        .join()
        .expect("pinning thread");
    }
}
