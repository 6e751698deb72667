# Writes OUT, a C++ fragment with one {"<file>.nf", R"NF(<text>)NF"}
# initializer per nfs/*.nf file in NF_DIR, sorted by name. corpus.cpp
# includes it into its table of embedded sources. Fails on a file that
# contains the raw-string delimiter, which would end its literal early.
#
#   cmake -DNF_DIR=<repo>/nfs -DOUT=<file> -P embed_corpus.cmake
file(GLOB paths "${NF_DIR}/*.nf")
list(SORT paths)
set(body "// Generated from nfs/*.nf by src/nfs/embed_corpus.cmake.\n")
foreach(path IN LISTS paths)
  get_filename_component(name "${path}" NAME)
  file(READ "${path}" text)
  string(FIND "${text}" ")NF\"" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "${path} contains the raw-string delimiter )NF\"")
  endif()
  string(APPEND body "{\"${name}\", R\"NF(${text})NF\"},\n")
endforeach()
file(WRITE "${OUT}" "${body}")
