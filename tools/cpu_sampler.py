#!/usr/bin/env python3
"""Per-thread CPU-clock sampler for a running process, without `perf`.

Opens one software cpu-clock event per thread with perf_event_open(2)
(needs root, or perf_event_paranoid <= 1 for your own process), reads the
sampled instruction pointers from each event's ring buffer, and reports
the samples by thread name and by symbol. With --lines PATTERN it also
attributes the samples of symbols containing PATTERN to the innermost
frame outside the Rust standard library, via `addr2line -i`: the caller
whose inlined std code (a BTreeMap search, a memcpy) is hot.

  python3 tools/cpu_sampler.py PID [--seconds 4] [--top 25] [--lines on_message]

Build the sampled binary with symbols and line tables
(CARGO_PROFILE_RELEASE_DEBUG=true) or the line mode has nothing to read.
"""
import argparse, bisect, collections, ctypes, mmap, os, struct, subprocess, time

PERF_EVENT_OPEN = 298  # x86-64 syscall number
PAGE = mmap.PAGESIZE
DATA_PAGES = 64
libc = ctypes.CDLL(None, use_errno=True)


def open_event(tid, period_ns):
    # perf_event_attr (PERF_ATTR_SIZE_VER5): software cpu-clock, sample IP and TID.
    attr = struct.pack("IIQQQQQIIQQQQIiQIHH", 1, 112, 0, period_ns, 0x1 | 0x2, 0,
                       1 << 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)  # exclude_hv
    buf = ctypes.create_string_buffer(attr, 112)
    fd = libc.syscall(PERF_EVENT_OPEN, buf, tid, -1, -1, 0)
    if fd < 0:
        raise OSError(ctypes.get_errno(), f"perf_event_open(tid {tid})")
    return fd, mmap.mmap(fd, PAGE * (1 + DATA_PAGES))


def drain(ring, out):
    head, tail = struct.unpack_from("QQ", ring, 1024)  # data_head, data_tail
    size = PAGE * DATA_PAGES
    data = ring[PAGE:PAGE + size]
    while tail < head:
        at = tail % size
        rec = data[at:at + 24] + data[:max(0, at + 24 - size)]  # a record may wrap the buffer end
        kind, _, length = struct.unpack_from("IHH", rec)
        if kind == 9:  # PERF_RECORD_SAMPLE: ip, pid, tid
            ip, _, tid = struct.unpack_from("QII", rec, 8)
            out.append((tid, ip))
        tail += length
    struct.pack_into("Q", ring, 1032, tail)


def cpu_ticks(pid, tid):
    with open(f"/proc/{pid}/task/{tid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])  # utime + stime


class Symbols:
    """Maps a runtime address to (object, file-relative address, symbol)."""

    def __init__(self, pid):
        self.maps = []
        with open(f"/proc/{pid}/maps") as f:
            for line in f:
                parts = line.split()
                if len(parts) >= 6 and "x" in parts[1] and parts[5].startswith("/"):  # not [vdso]
                    lo, hi = (int(x, 16) for x in parts[0].split("-"))
                    self.maps.append((lo, hi, int(parts[2], 16), parts[5]))
        self.tables = {}

    def table(self, path):
        if path not in self.tables:
            loads = []
            with open(path, "rb") as f:
                elf = f.read(64)
                phoff, = struct.unpack_from("Q", elf, 32)
                phentsize, phnum = struct.unpack_from("HH", elf, 54)
                f.seek(phoff)
                for _ in range(phnum):
                    ptype, _, off, vaddr, _, filesz = struct.unpack("IIQQQQ", f.read(phentsize)[:40])
                    if ptype == 1:  # PT_LOAD
                        loads.append((off, vaddr, filesz))
            syms = []
            for flags in (["-n", "-C"], ["-n", "-C", "-D"]):  # stripped objects: dynamic symbols only
                out = subprocess.run(["nm", *flags, "--defined-only", path], capture_output=True, text=True).stdout
                syms = [(int(a, 16), n) for a, t, n in (l.split(" ", 2) for l in out.splitlines() if l.count(" ") >= 2)
                        if t in "tTWwi"]
                if syms:
                    break
            self.tables[path] = (loads, [a for a, _ in syms], [n for _, n in syms])
        return self.tables[path]

    def resolve(self, ip):
        for lo, hi, off, path in self.maps:
            if lo <= ip < hi:
                loads, addrs, names = self.table(path)
                foff = ip - lo + off
                vaddr = next((foff - o + v for o, v, n in loads if o <= foff < o + n), foff)
                i = bisect.bisect_right(addrs, vaddr) - 1
                return path, vaddr, f"{names[i]}+{vaddr - addrs[i]:#x}" if i >= 0 else "?"
        where = "[kernel]" if ip >= 1 << 63 else "?"
        return where, ip, where


def inline_callers(path, addrs):
    """Per address: the innermost `addr2line -i` frame outside the Rust standard library,
    or the address itself in an object without line tables (a stripped libc)."""
    out = subprocess.run(["addr2line", "-a", "-i", "-f", "-C", "-e", path],
                         input="\n".join(f"{a:#x}" for a in addrs), capture_output=True, text=True).stdout
    records, cur = {}, None
    for line in out.splitlines():
        if line.startswith("0x"):
            cur = records.setdefault(int(line, 16), [])
        else:
            cur.append(line)
    frames = {}
    for addr, lines in records.items():
        pairs = zip(lines[0::2], lines[1::2])  # (function, file:line), innermost first
        frames[addr] = next((f"{loc.split(' (')[0]}  in {fn[:60]}" for fn, loc in pairs
                             if not loc.startswith(("/rustc/", "??"))),
                            f"{os.path.basename(path)} {addr:#x} (no line table: objdump -d it)")
    return frames


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("pid", type=int)
    ap.add_argument("--seconds", type=float, default=4.0)
    ap.add_argument("--period-us", type=int, default=250)
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--lines", metavar="PATTERN")
    a = ap.parse_args()
    events, samples, ticks = {}, [], {}
    end = time.time() + a.seconds
    while time.time() < end:
        for tid in map(int, os.listdir(f"/proc/{a.pid}/task")):
            if tid not in events:  # threads spawned after the start are picked up here
                events[tid] = open_event(tid, a.period_us * 1000)
                ticks[tid] = cpu_ticks(a.pid, tid)
        for _, ring in events.values():
            drain(ring, samples)
        time.sleep(0.05)
    names = {}
    for tid in events:
        try:
            with open(f"/proc/{a.pid}/task/{tid}/comm") as f:
                names[tid] = f.read().strip()
            ticks[tid] = cpu_ticks(a.pid, tid) - ticks[tid]
        except FileNotFoundError:
            names[tid], ticks[tid] = f"exited-{tid}", 0
    total = len(samples) or 1
    print(f"{len(samples)} samples over {a.seconds:.1f} s, {len(events)} threads")
    print("\nby thread (samples, /proc stat utime+stime ticks):")
    for tid, n in collections.Counter(t for t, _ in samples).most_common():
        print(f"  {100 * n / total:5.1f}%  {names.get(tid, tid):<16} tid {tid}  {ticks.get(tid, 0)} ticks")
    syms = Symbols(a.pid)
    resolved = [syms.resolve(ip) for _, ip in samples]
    print("\nby symbol:")
    for sym, n in collections.Counter(s.split("+0x")[0] for _, _, s in resolved).most_common(a.top):
        print(f"  {100 * n / total:5.1f}%  {sym[:150]}")
    if a.lines:
        hits = [(p, v) for p, v, s in resolved if a.lines in s]
        callers = collections.Counter()
        for path in {p for p, _ in hits}:
            frames = inline_callers(path, sorted({v for p, v in hits if p == path}))
            callers.update(frames.get(v, "?") for p, v in hits if p == path)
        print(f"\n--lines {a.lines}: {len(hits)} samples ({100 * len(hits) / total:.1f}%), by innermost non-std frame:")
        for frame, n in callers.most_common(a.top):
            print(f"  {100 * n / total:5.1f}%  {frame}")


if __name__ == "__main__":
    main()
