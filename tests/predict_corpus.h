/**
 * @file
 * The committed /predict kernel corpus: dependency chains, parallel
 * and port-conflicting blocks, macro-fused pairs, divider kernels,
 * store/load roundtrips, elimination idioms. The conformance suite
 * pins the served simulation to it, and the predictor suite bounds
 * the static prediction's error on it.
 */

#ifndef UOPS_TESTS_PREDICT_CORPUS_H
#define UOPS_TESTS_PREDICT_CORPUS_H

#include <string>
#include <vector>

namespace uops::test {

/** The committed corpus. Base-ISA / SSE2 only, so every kernel is
 *  valid on all nine generations (Table 1). */
inline const std::vector<std::string> &
predictCorpus()
{
    static const std::vector<std::string> kernels = {
        // Single instructions and latency chains.
        "ADD RAX, RBX",
        "ADD RAX, RBX\nADD RBX, RAX",
        "ADD RAX, RAX\nADD RAX, RAX\nADD RAX, RAX",
        "ADD RAX, 1\nADD RAX, 2\nADD RAX, 3",
        "IMUL RAX, RBX",
        "IMUL RAX, RBX\nIMUL RBX, RAX",
        "SHL RAX, 3\nSHL RBX, 5",
        // Independent blocks (port pressure, no dependencies).
        "ADD RAX, RBX\nADD RCX, RDX\nADD RSI, RDI",
        "IMUL RAX, RBX\nIMUL RCX, RDX\nADD RSI, RDI",
        "INC RAX\nDEC RBX\nNEG RCX",
        // Port-conflict blocks (many µops fighting few ports).
        "IMUL RAX, RBX\nIMUL RCX, RDX\nIMUL RSI, RDI",
        "SHL RAX, 1\nSHL RBX, 2\nSHL RCX, 3\nSHL RDX, 4",
        // Elimination idioms.
        "XOR RAX, RAX",
        "XOR RAX, RAX\nADD RAX, RBX",
        "MOV RAX, RBX",
        "MOV RAX, RBX\nMOV RBX, RCX\nMOV RCX, RAX",
        "NOP",
        "NOP\nNOP\nNOP\nNOP",
        // Macro-fused pairs (CMP/TEST + Jcc on every generation).
        "CMP RAX, RBX\nJNZ 0",
        "TEST RAX, RBX\nJZ 0",
        "ADD RAX, RBX\nCMP RAX, RCX\nJNZ 0",
        // Divider kernels (not fully pipelined, value-dependent).
        "DIV EBX",
        "DIV EBX\nDIV ECX",
        "DIV EBX\nADD RAX, RCX\nADD RCX, RDX",
        // Loads, stores, store/load roundtrips.
        "MOV RAX, [RBX]",
        "MOV [RBX], RAX",
        "MOV [RBX+64], RAX\nMOV RCX, [RBX+64]",
        "ADD RAX, [RBX]\nADD [RCX], RDX",
        "MOV [RSI+8], RDI\nMOV RDI, [RSI+8]\nADD RDI, 1",
        // SSE/SSE2 vector blocks.
        "MOVAPS XMM0, XMM1",
        "ADDPS XMM0, XMM1\nADDPS XMM1, XMM2",
        "MULPS XMM0, XMM1\nADDPS XMM2, XMM0",
        "PADDD XMM0, XMM1\nPAND XMM2, XMM3",
        // A mixed block exercising most units at once.
        "ADD RAX, RBX\nIMUL RCX, RAX\nXOR RDX, RDX\n"
        "MOV R8, [R9]\nCMP R8, RCX\nJNZ 0",
    };
    return kernels;
}

} // namespace uops::test

#endif // UOPS_TESTS_PREDICT_CORPUS_H
