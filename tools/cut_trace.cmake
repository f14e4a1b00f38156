# Copies the head of IN to OUT, cut at the last line break within the first
# BYTES bytes: a JSONL trace that ends before its footer, as an interrupted
# writer leaves it.
#
#   cmake -DIN=full.jsonl -DOUT=cut.jsonl -DBYTES=20000 -P cut_trace.cmake
file(READ "${IN}" text)
string(SUBSTRING "${text}" 0 ${BYTES} text)
string(FIND "${text}" "\n" last REVERSE)
if(last LESS 0)
  message(FATAL_ERROR "no complete line in the first ${BYTES} bytes of ${IN}")
endif()
math(EXPR keep "${last} + 1")
string(SUBSTRING "${text}" 0 ${keep} text)
file(WRITE "${OUT}" "${text}")
