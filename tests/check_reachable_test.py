#!/usr/bin/env python3
"""Unit tests of the symbol normalization in tools/check_reachable.py.

    python3 tests/check_reachable_test.py
"""

import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))
import check_reachable as cr  # noqa: E402


class Normalized(unittest.TestCase):
    def test_template_arguments_and_return_type_drop(self):
        self.assertEqual(
            cr.normalized("void pdr::graph::Digraph<int, std::vector<int, std::allocator<int> > >"
                          "::visit<char>(unsigned int, char&&) const"),
            "pdr::graph::Digraph::visit(unsigned int, char&&) const")

    def test_std_instance_returning_a_pdr_type_is_std(self):
        self.assertEqual(
            cr.normalized("pdr::aaa::Op* std::__do_uninit_copy<pdr::aaa::Op const*, pdr::aaa::Op*>"
                          "(pdr::aaa::Op const*, pdr::aaa::Op*)"),
            "std::__do_uninit_copy(pdr::aaa::Op const*, pdr::aaa::Op*)")

    def test_operators_abi_tags_and_anonymous_namespaces(self):
        cases = {
            "pdr::X::operator()(int) const": "pdr::X::operator()",
            "pdr::X::operator bool() const": "pdr::X::operator bool",
            "std::ostream& pdr::operator<< <int>(std::ostream&, int)": "pdr::operator<<",
            "pdr::(anonymous namespace)::f[abi:cxx11](int)": "pdr::(anonymous namespace)::f",
        }
        for symbol, name in cases.items():
            self.assertEqual(cr.qualified_name(cr.normalized(symbol)), name, symbol)


class CompilerNoise(unittest.TestCase):
    def test_generated_members_are_noise(self):
        for symbol in ["pdr::graph::Digraph<int, int>::Digraph(pdr::graph::Digraph<int, int> const&)",
                       "pdr::X::X()", "pdr::X::operator=(pdr::X&&)", "pdr::X::~X()",
                       "pdr::f(int)::{lambda(int)#1}::operator()(int) const"]:
            self.assertTrue(cr.is_compiler_noise(cr.normalized(symbol)), symbol)

    def test_user_members_are_checked(self):
        for symbol in ["pdr::X::X(int)", "pdr::X::operator=(int)", "pdr::X::size() const"]:
            self.assertFalse(cr.is_compiler_noise(cr.normalized(symbol)), symbol)


if __name__ == "__main__":
    unittest.main()
