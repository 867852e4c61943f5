#include "codegen/offline_driver.h"

#include <dlfcn.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "codegen/translator.h"

namespace hef {

CompiledKernel::~CompiledKernel() {
  if (handle_ != nullptr) {
    dlclose(handle_);
  }
}

OfflineDriver::OfflineDriver(std::string work_dir)
    : work_dir_(std::move(work_dir)) {
  ::mkdir(work_dir_.c_str(), 0755);  // EEXIST is fine
}

Result<CompiledKernel> OfflineDriver::Compile(const std::string& source,
                                              const std::string& tag) {
  const std::string base = work_dir_ + "/" + tag;
  const std::string cpp = base + ".cpp";
  const std::string so = base + ".so";
  const std::string log = base + ".log";

  {
    std::ofstream file(cpp);
    if (!file) {
      return Status::IoError("cannot write " + cpp);
    }
    file << source;
  }

  // The paper's synthetic-benchmark flags plus what shared objects need.
  const std::string cmd = "g++ -std=c++20 -O3 -march=native -mavx512f "
                          "-mavx512dq -fno-tree-vectorize -shared -fPIC -o " +
                          so + " " + cpp + " > " + log + " 2>&1";
  ++compile_count_;
  const int rc = std::system(cmd.c_str());
  if (rc != 0) {
    return Status::IoError("compiler failed for " + tag +
                           " (see " + log + ")");
  }

  void* handle = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    return Status::IoError(std::string("dlopen failed: ") + dlerror());
  }
  auto fn = reinterpret_cast<CompiledKernel::Fn>(
      dlsym(handle, kGeneratedEntryPoint));
  if (fn == nullptr) {
    dlclose(handle);
    return Status::IoError("generated kernel entry point missing in " + so);
  }
  return CompiledKernel(handle, fn);
}

}  // namespace hef
