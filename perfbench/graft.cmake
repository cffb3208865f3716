# Included at the end of the repository's project() call
# (-DCMAKE_PROJECT_sariadne_INCLUDE=<this file>). Once the top-level
# CMakeLists.txt has defined every target, the benchmark's build file is
# read into the same build, so the benchmark links the libraries with
# their usage requirements and names the daemon it spawns by target.
# (Deferred calls may not add subdirectories, hence include().)
set(SARIADNE_PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
               CALL include "${SARIADNE_PERFBENCH_DIR}/CMakeLists.txt")
