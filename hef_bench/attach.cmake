# Pass as -DCMAKE_PROJECT_INCLUDE=<this file> when configuring the
# repository root. Defers including the CMakeLists.txt beside this file to
# the end of the root CMakeLists.txt, when every library target, compile
# option and the `hef` binary exist. (CMake forbids a deferred
# add_subdirectory, hence include.)
cmake_language(EVAL CODE
  "cmake_language(DEFER CALL include [[${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt]])")
