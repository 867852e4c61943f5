// OfflineDriver — the compile-and-test half of the paper's offline phase
// (Fig. 4 "Optimizer" box, Algorithm 2 line 4: exe <- compile(impl(node))):
// writes translated source to a scratch directory, invokes the system C++
// compiler with the paper's flags, loads the shared object, and returns a
// callable kernel.

#ifndef HEF_CODEGEN_OFFLINE_DRIVER_H_
#define HEF_CODEGEN_OFFLINE_DRIVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"

namespace hef {

// A dlopen'ed generated kernel; unloads on destruction.
class CompiledKernel {
 public:
  using Fn = void (*)(const std::uint64_t* in, std::uint64_t* out,
                      std::size_t n, const std::uint64_t* aux);

  CompiledKernel(void* handle, Fn fn) : handle_(handle), fn_(fn) {}
  ~CompiledKernel();
  CompiledKernel(CompiledKernel&& other) noexcept
      : handle_(other.handle_), fn_(other.fn_) {
    other.handle_ = nullptr;
    other.fn_ = nullptr;
  }
  CompiledKernel& operator=(CompiledKernel&&) = delete;
  CompiledKernel(const CompiledKernel&) = delete;
  CompiledKernel& operator=(const CompiledKernel&) = delete;

  void Run(const std::uint64_t* in, std::uint64_t* out, std::size_t n,
           const std::uint64_t* aux = nullptr) const {
    fn_(in, out, n, aux);
  }

 private:
  void* handle_;
  Fn fn_;
};

class OfflineDriver {
 public:
  // `work_dir` holds generated sources and shared objects; created if
  // missing. The compiler command defaults to the paper's synthetic-bench
  // flag set (g++ -O3 -march=native -mavx512f -mavx512dq
  // -fno-tree-vectorize).
  explicit OfflineDriver(std::string work_dir = "/tmp/hef_codegen");

  // Compiles `source` (tagged for file naming) and loads the generated
  // entry point. Returns IoError with the compiler output path on failure.
  Result<CompiledKernel> Compile(const std::string& source,
                                 const std::string& tag);

  const std::string& work_dir() const { return work_dir_; }

  // Compiler invocations performed so far (for the search-cost bench).
  int compile_count() const { return compile_count_; }

 private:
  std::string work_dir_;
  int compile_count_ = 0;
};

}  // namespace hef

#endif  // HEF_CODEGEN_OFFLINE_DRIVER_H_
