# Stamp the build identity that keys snapshot stores (see
# src/harness/snapshot_io.hh). Run at build time in script mode:
#
#   cmake -DSRC=<repo>/src -DOUT=<header> -DCONFIG=<compiler|flags> \
#         -P tools/build_id.cmake
#
# The identity is a 64-bit digest over every src/**/*.cc and *.hh
# (relative path plus content, so two checkouts of one commit agree)
# and CONFIG (compiler id and version, build type, CXX flags). OUT is
# rewritten only when the digest changes, so a source edit recompiles
# the one file that includes it.
cmake_minimum_required(VERSION 3.16)

file(GLOB_RECURSE files RELATIVE "${SRC}" "${SRC}/*.cc" "${SRC}/*.hh")
list(SORT files)
set(manifest "${CONFIG}\n")
foreach(rel ${files})
    file(SHA256 "${SRC}/${rel}" h)
    string(APPEND manifest "${rel} ${h}\n")
endforeach()
string(SHA256 digest "${manifest}")
string(SUBSTRING "${digest}" 0 16 id)
# 0 is the identity of unstamped builds; a stamped one never uses it.
if(id STREQUAL "0000000000000000")
    set(id 0000000000000001)
endif()

set(text "#define SEQPOINT_BUILD_ID 0x${id}ull\n")
if(EXISTS "${OUT}")
    file(READ "${OUT}" old)
endif()
if(NOT "${old}" STREQUAL "${text}")
    file(WRITE "${OUT}" "${text}")
endif()
