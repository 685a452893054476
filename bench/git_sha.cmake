# Build-time commit stamp for the benches that record one in their JSON:
# writes OUT, a header defining PATHSEP_GIT_SHA as `git describe --always
# --dirty` of the source tree SRC (empty outside a git checkout). The file
# is rewritten only when the text changes, so a rebuild at the same commit
# recompiles nothing and a rebuild after a commit recompiles the stamped
# benches. Run as `cmake -DSRC=... -DOUT=... -P git_sha.cmake`.
execute_process(COMMAND git describe --always --dirty
  WORKING_DIRECTORY "${SRC}" OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE ERROR_QUIET)
set(text "#define PATHSEP_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT "${old}" STREQUAL "${text}")
  file(WRITE "${OUT}" "${text}")
endif()
