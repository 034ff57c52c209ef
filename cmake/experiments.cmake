# EXPERIMENTS.md: the stdout of the paper's reproduction programs,
# one "## <program>" section each, in a fenced text block.
#
# Check one program (what CTest's experiment_<program> entries run):
#
#   cmake -DEXPERIMENTS=EXPERIMENTS.md -DBIN_DIR=build \
#         -DCHECK=bench_table1 -P cmake/experiments.cmake
#
# runs BIN_DIR/<program> and fails, printing each differing line,
# unless its stdout equals the program's section byte for byte.
#
# Rewrite the file (what `cmake --build build --target experiments`
# runs):
#
#   cmake -DEXPERIMENTS=EXPERIMENTS.md -DBIN_DIR=build \
#         "-DRECORD=bench_table1;bench_fig1_pipeline;..." \
#         -P cmake/experiments.cmake
#
# runs the programs in the given order and writes their stdout.

cmake_minimum_required(VERSION 3.16)

# The stdout of BIN_DIR/<name>; a non-zero exit is an error.
function(run_program name out_var)
    execute_process(COMMAND "${BIN_DIR}/${name}"
        OUTPUT_VARIABLE out
        RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "${name} exited with status ${status}")
    endif()
    set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

set(fence_open "```text\n")
set(fence_close "```\n")

if(DEFINED RECORD)
    string(CONCAT doc
        "# EXPERIMENTS\n\n"
        "The paper's evaluation as this repository reproduces it on its\n"
        "simulated cores: the stdout of each reproduction program in\n"
        "`bench/`. This file is generated: `cmake --build build --target\n"
        "experiments` rewrites it, and CTest's `experiment_<program>`\n"
        "entries fail when a program's output differs from its section.\n")
    foreach(name IN LISTS RECORD)
        run_program(${name} out)
        if(NOT out MATCHES "\n$")
            message(FATAL_ERROR "${name}: stdout must end with a newline")
        endif()
        string(APPEND doc "\n## ${name}\n\n${fence_open}${out}${fence_close}")
    endforeach()
    file(WRITE "${EXPERIMENTS}.tmp" "${doc}")
    file(RENAME "${EXPERIMENTS}.tmp" "${EXPERIMENTS}")
    return()
endif()

if(NOT DEFINED CHECK)
    message(FATAL_ERROR "pass -DCHECK=<program> or -DRECORD=<programs>")
endif()

file(READ "${EXPERIMENTS}" doc)
set(heading "## ${CHECK}\n\n${fence_open}")
string(FIND "${doc}" "${heading}" start)
if(start EQUAL -1)
    message(FATAL_ERROR "${EXPERIMENTS} has no section for ${CHECK}; "
        "rewrite it with the experiments target")
endif()
string(LENGTH "${heading}" heading_len)
math(EXPR start "${start} + ${heading_len}")
string(SUBSTRING "${doc}" ${start} -1 rest)
string(FIND "${rest}" "\n${fence_close}" end)
if(end EQUAL -1)
    message(FATAL_ERROR "${CHECK}'s section of ${EXPERIMENTS} is not closed")
endif()
math(EXPR end "${end} + 1")
string(SUBSTRING "${rest}" 0 ${end} expected)

run_program(${CHECK} actual)
if(actual STREQUAL expected)
    return()
endif()

# Walk both texts a line at a time (not as CMake lists: the output has
# semicolons) and print each line that differs.
set(line 0)
set(shown 0)
while(NOT (expected STREQUAL "" AND actual STREQUAL ""))
    math(EXPR line "${line} + 1")
    foreach(side expected actual)
        string(FIND "${${side}}" "\n" eol)
        if(${side} STREQUAL "")
            set(${side}_line "(no line)")
        elseif(eol EQUAL -1)
            set(${side}_line "${${side}}")
            set(${side} "")
        else()
            string(SUBSTRING "${${side}}" 0 ${eol} ${side}_line)
            math(EXPR eol "${eol} + 1")
            string(SUBSTRING "${${side}}" ${eol} -1 ${side})
        endif()
    endforeach()
    if(NOT expected_line STREQUAL actual_line)
        message("line ${line}:\n"
            "  expected: ${expected_line}\n"
            "  actual:   ${actual_line}")
        math(EXPR shown "${shown} + 1")
        if(shown EQUAL 40)
            message("(further differences not shown)")
            break()
        endif()
    endif()
endwhile()
message(FATAL_ERROR "${CHECK}'s stdout differs from its section of "
    "${EXPERIMENTS}. If the change is meant, rewrite the file with "
    "`cmake --build <build dir> --target experiments` and say why.")
