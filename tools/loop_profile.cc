// loop_profile: a user-space IP sampler for one running process.
//
//   loop_profile --pid 1234 [--delay 3.5] [--seconds 2]
//
// Opens one perf_event_open(2) task-clock sampler per thread of --pid
// (user-mode IPs only, which is all the kernel allows an unprivileged user
// at perf_event_paranoid=2, and only on processes of the same user) after
// waiting --delay seconds, samples at 4999 Hz for --seconds, then prints every
// thread's share of the samples and the busiest thread's top 25 symbols by
// share. Task-clock samples are proportional to the thread's CPU time,
// so the busiest thread of a saturated server is its busiest loop.
//
// Symbols come from `nm` on each mapped file (.symtab, falling back to the
// dynamic table). A stripped library's IPs are reported as `lib!~sym`:
// `sym` is the nearest exported symbol below the IP, or one of the string
// routines (memcpy, memset, ...) the dynamic linker resolved for this CPU,
// whose size is unknown, so the attribution is a best guess. An IP past the
// end of a sized symbol is `lib!? past sym`. The vDSO (clock_gettime) shows as
// `[vdso]`. Only user-mode time is sampled: a thread's share excludes its
// system calls. Threads created after sampling starts are not sampled.
#include <dlfcn.h>
#include <elf.h>
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <climits>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace {

constexpr size_t kRingPages = 64;  // data pages per thread ring (power of two)
constexpr int kFreq = 4999;        // samples per second of thread CPU time
constexpr size_t kTopSymbols = 25;

struct Options {
  int pid = 0;
  double delay_s = 0;
  double seconds = 2;
};

struct Sampler {
  int tid = 0;
  int fd = -1;
  char* ring = nullptr;
  size_t ring_bytes = 0;
  std::unordered_map<uint64_t, uint64_t> ips;  // ip -> samples
  uint64_t samples = 0;
  uint64_t lost = 0;
};

long perf_event_open(perf_event_attr* attr, pid_t tid) {
  return syscall(SYS_perf_event_open, attr, tid, -1, -1, PERF_FLAG_FD_CLOEXEC);
}

bool open_sampler(Sampler* s) {
  perf_event_attr attr{};
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_SOFTWARE;
  attr.config = PERF_COUNT_SW_TASK_CLOCK;
  attr.freq = 1;
  attr.sample_freq = kFreq;
  attr.sample_type = PERF_SAMPLE_IP | PERF_SAMPLE_TID;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.disabled = 1;
  s->fd = (int)perf_event_open(&attr, s->tid);
  if (s->fd < 0) return false;
  size_t page = (size_t)sysconf(_SC_PAGESIZE);
  s->ring_bytes = (1 + kRingPages) * page;
  void* p = mmap(nullptr, s->ring_bytes, PROT_READ | PROT_WRITE, MAP_SHARED, s->fd, 0);
  if (p == MAP_FAILED) {
    close(s->fd);
    s->fd = -1;
    return false;
  }
  s->ring = static_cast<char*>(p);
  return true;
}

// Consume every record the kernel has published in `s`'s ring.
void drain(Sampler* s) {
  auto* meta = reinterpret_cast<perf_event_mmap_page*>(s->ring);
  const char* data = s->ring + meta->data_offset;
  const uint64_t size = meta->data_size;
  uint64_t head = __atomic_load_n(&meta->data_head, __ATOMIC_ACQUIRE);
  uint64_t tail = meta->data_tail;
  while (tail < head) {
    perf_event_header hdr;
    for (size_t i = 0; i < sizeof(hdr); i++) {
      reinterpret_cast<char*>(&hdr)[i] = data[(tail + i) % size];
    }
    if (hdr.type == PERF_RECORD_SAMPLE) {
      uint64_t ip = 0;
      for (size_t i = 0; i < sizeof(ip); i++) {
        reinterpret_cast<char*>(&ip)[i] = data[(tail + sizeof(hdr) + i) % size];
      }
      s->ips[ip]++;
      s->samples++;
    } else if (hdr.type == PERF_RECORD_LOST) {
      uint64_t lost = 0;
      for (size_t i = 0; i < sizeof(lost); i++) {
        reinterpret_cast<char*>(&lost)[i] = data[(tail + sizeof(hdr) + 8 + i) % size];
      }
      s->lost += lost;
    }
    tail += hdr.size;
  }
  __atomic_store_n(&meta->data_tail, tail, __ATOMIC_RELEASE);
}

// ---- symbolization ----------------------------------------------------------

struct Mapping {
  uint64_t start = 0, end = 0, offset = 0;
  std::string path;
};

std::vector<Mapping> read_maps(int pid) {
  std::vector<Mapping> out;
  std::ifstream f("/proc/" + std::to_string(pid) + "/maps");
  std::string line;
  while (std::getline(f, line)) {
    Mapping m;
    char perms[8] = {};
    int path_at = 0;
    if (sscanf(line.c_str(), "%" SCNx64 "-%" SCNx64 " %7s %" SCNx64 " %*s %*s %n", &m.start,
               &m.end, perms, &m.offset, &path_at) < 4 ||
        perms[2] != 'x') {
      continue;
    }
    if (path_at > 0 && (size_t)path_at < line.size()) m.path = line.substr((size_t)path_at);
    out.push_back(m);
  }
  return out;
}

struct Symbol {
  uint64_t addr, size;
  std::string name;
};

struct SymbolFile {
  std::vector<Symbol> syms;  // sorted by addr
  bool dynamic_only = false;
  // PT_LOAD segments: file offset -> virtual address.
  std::vector<Elf64_Phdr> loads;
};

std::vector<Symbol> run_nm(const std::string& args, const std::string& path) {
  std::vector<Symbol> out;
  std::string cmd = "nm " + args + " -C -n -S --defined-only '" + path + "' 2>/dev/null";
  std::unique_ptr<FILE, int (*)(FILE*)> p(popen(cmd.c_str(), "r"), pclose);
  if (!p) return out;
  char buf[4096];
  while (fgets(buf, sizeof(buf), p.get()) != nullptr) {
    std::istringstream in(buf);
    std::string addr, size, type;
    if (!(in >> addr >> size)) continue;
    if (size.size() == 1) {  // no size column: "addr type name"
      type = size;
      size = "0";
    } else if (!(in >> type)) {
      continue;
    }
    if (type.size() != 1 || std::string("tTwWi").find(type[0]) == std::string::npos) continue;
    std::string name;
    std::getline(in, name);
    name.erase(0, name.find_first_not_of(' '));
    if (!name.empty() && name.back() == '\n') name.pop_back();
    out.push_back({std::stoull(addr, nullptr, 16), std::stoull(size, nullptr, 16), name});
  }
  return out;
}

// A stripped libc exports `memcpy` only as an IFUNC resolver; the routine
// that runs (e.g. __memmove_avx_unaligned_erms) is a local symbol nm cannot
// see. The dynamic linker picks the same routine for every process on this
// CPU, so resolve the common ones here and, when they live in `path`, add
// their addresses as symbols.
void add_resolved_ifuncs(const std::string& path, std::vector<Symbol>* syms) {
  static const char* const kNames[] = {"memcpy", "memmove", "memset", "memcmp", "memchr",
                                       "strlen", "strcmp", "bcmp"};
  char want[PATH_MAX];
  if (realpath(path.c_str(), want) == nullptr) return;
  for (const char* name : kNames) {
    void* fn = dlsym(RTLD_DEFAULT, name);
    Dl_info info{};
    char have[PATH_MAX];
    if (fn == nullptr || dladdr(fn, &info) == 0 || info.dli_fname == nullptr ||
        realpath(info.dli_fname, have) == nullptr || std::strcmp(want, have) != 0) {
      continue;
    }
    uint64_t vaddr = (uint64_t)((const char*)fn - (const char*)info.dli_fbase);
    syms->push_back({vaddr, 0, std::string(name) + " (resolved ifunc)"});
  }
  std::sort(syms->begin(), syms->end(),
            [](const Symbol& a, const Symbol& b) { return a.addr < b.addr; });
}

SymbolFile load_symbols(const std::string& path) {
  SymbolFile f;
  std::ifstream elf(path, std::ios::binary);
  Elf64_Ehdr eh{};
  if (elf.read(reinterpret_cast<char*>(&eh), sizeof(eh)) &&
      std::memcmp(eh.e_ident, ELFMAG, SELFMAG) == 0 && eh.e_ident[EI_CLASS] == ELFCLASS64) {
    for (int i = 0; i < eh.e_phnum; i++) {
      Elf64_Phdr ph{};
      elf.seekg((std::streamoff)(eh.e_phoff + (uint64_t)i * eh.e_phentsize));
      if (!elf.read(reinterpret_cast<char*>(&ph), sizeof(ph))) break;
      if (ph.p_type == PT_LOAD) f.loads.push_back(ph);
    }
  }
  f.syms = run_nm("", path);
  if (f.syms.empty()) {
    f.syms = run_nm("-D", path);
    f.dynamic_only = true;
    add_resolved_ifuncs(path, &f.syms);
  }
  return f;
}

std::string basename_of(const std::string& path) {
  size_t slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string symbolize(uint64_t ip, const std::vector<Mapping>& maps,
                      std::map<std::string, SymbolFile>& files) {
  for (const Mapping& m : maps) {
    if (ip < m.start || ip >= m.end) continue;
    if (m.path.empty() || m.path[0] == '[') return m.path.empty() ? "[anon]" : m.path;
    auto it = files.find(m.path);
    if (it == files.end()) it = files.emplace(m.path, load_symbols(m.path)).first;
    const SymbolFile& f = it->second;
    uint64_t off = ip - m.start + m.offset;
    uint64_t vaddr = off;
    for (const Elf64_Phdr& ph : f.loads) {
      if (off >= ph.p_offset && off < ph.p_offset + ph.p_filesz) {
        vaddr = off - ph.p_offset + ph.p_vaddr;
        break;
      }
    }
    auto sym = std::upper_bound(f.syms.begin(), f.syms.end(), vaddr,
                                [](uint64_t a, const Symbol& s) { return a < s.addr; });
    std::string lib = basename_of(m.path);
    if (sym == f.syms.begin()) return lib + "!?";
    --sym;
    if (sym->size != 0 && vaddr >= sym->addr + sym->size) return lib + "!? past " + sym->name;
    if (f.dynamic_only) return lib + "!~" + sym->name;
    return sym->name;
  }
  return "[unmapped]";
}

std::string thread_name(int pid, int tid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/task/" + std::to_string(tid) + "/comm");
  std::string name;
  std::getline(f, name);
  return name;
}

bool parse(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (a == "--pid") o->pid = std::atoi(v);
    else if (a == "--delay") o->delay_s = std::atof(v);
    else if (a == "--seconds") o->seconds = std::atof(v);
    else return false;
  }
  return o->pid > 0 && o->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, &o)) {
    fprintf(stderr, "usage: loop_profile --pid PID [--delay S] [--seconds S]\n");
    return 2;
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(o.delay_s));
  std::vector<Sampler> samplers;
  std::string task_dir = "/proc/" + std::to_string(o.pid) + "/task";
  if (DIR* d = opendir(task_dir.c_str())) {
    while (dirent* e = readdir(d)) {
      if (e->d_name[0] == '.') continue;
      samplers.emplace_back();
      samplers.back().tid = std::atoi(e->d_name);
    }
    closedir(d);
  }
  if (samplers.empty()) {
    fprintf(stderr, "loop_profile: no threads under %s\n", task_dir.c_str());
    return 1;
  }
  size_t opened = 0;
  for (Sampler& s : samplers) {
    if (open_sampler(&s)) opened++;
  }
  if (opened == 0) {
    fprintf(stderr, "loop_profile: perf_event_open failed: %s\n", strerror(errno));
    return 1;
  }
  for (Sampler& s : samplers) {
    if (s.fd >= 0) ioctl(s.fd, PERF_EVENT_IOC_ENABLE, 0);
  }
  auto end = std::chrono::steady_clock::now() + std::chrono::duration<double>(o.seconds);
  while (std::chrono::steady_clock::now() < end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    for (Sampler& s : samplers) {
      if (s.fd >= 0) drain(&s);
    }
  }
  for (Sampler& s : samplers) {
    if (s.fd < 0) continue;
    ioctl(s.fd, PERF_EVENT_IOC_DISABLE, 0);
    drain(&s);
  }

  std::sort(samplers.begin(), samplers.end(),
            [](const Sampler& a, const Sampler& b) { return a.samples > b.samples; });
  uint64_t total = 0;
  for (const Sampler& s : samplers) total += s.samples;
  printf("pid %d: %" PRIu64 " samples over %.2f s at %d Hz\n", o.pid, total, o.seconds, kFreq);
  printf("%8s %-16s %9s %8s %6s\n", "tid", "name", "samples", "user", "lost");
  for (const Sampler& s : samplers) {
    if (s.samples == 0) continue;
    printf("%8d %-16s %9" PRIu64 " %7.1f%% %6" PRIu64 "\n", s.tid,
           thread_name(o.pid, s.tid).c_str(), s.samples,
           100.0 * (double)s.samples / (o.seconds * kFreq), s.lost);
  }

  const Sampler& busiest = samplers.front();
  if (busiest.samples > 0) {
    std::vector<Mapping> maps = read_maps(o.pid);
    std::map<std::string, SymbolFile> files;
    std::unordered_map<std::string, uint64_t> by_sym;
    for (const auto& [ip, n] : busiest.ips) by_sym[symbolize(ip, maps, files)] += n;
    std::vector<std::pair<std::string, uint64_t>> rows(by_sym.begin(), by_sym.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    rows.resize(std::min(rows.size(), kTopSymbols));
    printf("\nthread %d (%" PRIu64 " samples): top symbols\n", busiest.tid, busiest.samples);
    for (const auto& [sym, n] : rows) {
      printf("%6.1f%%  %s\n", 100.0 * (double)n / (double)busiest.samples, sym.c_str());
    }
  }
  for (Sampler& s : samplers) {
    if (s.ring != nullptr) munmap(s.ring, s.ring_bytes);
    if (s.fd >= 0) close(s.fd);
  }
  return 0;
}
