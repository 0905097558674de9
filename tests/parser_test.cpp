//===- tests/parser_test.cpp - Parser tests -------------------------------===//
//
// Part of PPD test suite: structure of parsed programs, statement table
// invariants, error recovery, and parse/print round-trip stability.
//
//===----------------------------------------------------------------------===//

#include "lang/AstPrinter.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

using namespace ppd;

namespace {

std::unique_ptr<Program> parseOk(const std::string &Source) {
  DiagnosticEngine Diags;
  auto P = Parser::parse(Source, Diags);
  EXPECT_TRUE(P != nullptr) << Diags.str();
  return P;
}

bool parseFails(const std::string &Source) {
  DiagnosticEngine Diags;
  auto P = Parser::parse(Source, Diags);
  return !P && Diags.hasErrors();
}

TEST(ParserTest, TopLevelDecls) {
  auto P = parseOk("shared int sv = 3;\n"
                   "int priv;\n"
                   "shared int arr[10];\n"
                   "sem mutex = 1;\n"
                   "chan c[4];\n"
                   "chan r;\n"
                   "func main() { }\n");
  ASSERT_EQ(P->Globals.size(), 3u);
  EXPECT_TRUE(P->Globals[0].Shared);
  EXPECT_EQ(P->Globals[0].Init, 3);
  EXPECT_FALSE(P->Globals[1].Shared);
  EXPECT_EQ(P->Globals[2].ArraySize, 10);
  ASSERT_EQ(P->Sems.size(), 1u);
  EXPECT_EQ(P->Sems[0].Init, 1);
  ASSERT_EQ(P->Chans.size(), 2u);
  EXPECT_EQ(P->Chans[0].Capacity, 4);
  EXPECT_EQ(P->Chans[1].Capacity, 0);
  ASSERT_EQ(P->Funcs.size(), 1u);
}

TEST(ParserTest, NegativeGlobalInitializer) {
  auto P = parseOk("int g = -5; func main() { }");
  EXPECT_EQ(P->Globals[0].Init, -5);
}

TEST(ParserTest, FunctionParams) {
  auto P = parseOk("func f(int a, int b) { return a + b; } func main() { }");
  ASSERT_EQ(P->Funcs[0]->Params.size(), 2u);
  EXPECT_EQ(P->Funcs[0]->Params[0].Name, "a");
  EXPECT_EQ(P->Funcs[0]->Params[1].Name, "b");
  EXPECT_EQ(P->Funcs[0]->Index, 0u);
  EXPECT_EQ(P->Funcs[1]->Index, 1u);
}

TEST(ParserTest, StatementKinds) {
  auto P = parseOk(R"(
sem s; chan c;
func f(int x) { return x; }
func main() {
  int i = 0;
  int a[4];
  a[i] = 3;
  i = f(i) + 1;
  if (i > 0) print(i); else i = 0;
  while (i < 10) i = i + 1;
  for (i = 0; i < 4; i = i + 1) a[i] = i;
  P(s);
  V(s);
  send(c, i);
  i = recv(c);
  spawn f(1);
  f(2);
  i = input();
}
)");
  const BlockStmt *Body = P->Funcs[1]->Body.get();
  std::vector<StmtKind> Kinds;
  for (const StmtPtr &S : Body->Body)
    Kinds.push_back(S->getKind());
  EXPECT_EQ(Kinds,
            (std::vector<StmtKind>{
                StmtKind::VarDecl, StmtKind::VarDecl, StmtKind::Assign,
                StmtKind::Assign, StmtKind::If, StmtKind::While, StmtKind::For,
                StmtKind::P, StmtKind::V, StmtKind::Send, StmtKind::Assign,
                StmtKind::Spawn, StmtKind::Expr, StmtKind::Assign}));
}

TEST(ParserTest, StatementTableIsDenseAndConsistent) {
  auto P = parseOk(R"(
func main() {
  int i = 0;
  if (i > 0) { i = 1; } else { i = 2; }
  while (i < 5) i = i + 1;
}
)");
  ASSERT_GT(P->numStmts(), 0u);
  for (StmtId Id = 0; Id != P->numStmts(); ++Id) {
    ASSERT_NE(P->stmt(Id), nullptr);
    EXPECT_EQ(P->stmt(Id)->Id, Id);
  }
}

TEST(ParserTest, PredicatesRegisteredBeforeChildren) {
  auto P = parseOk("func main() { int i = 0; if (i) i = 1; while (i) i = 2; }");
  for (StmtId Id = 0; Id != P->numStmts(); ++Id) {
    const Stmt *S = P->stmt(Id);
    if (const auto *I = dyn_cast<IfStmt>(S)) {
      EXPECT_LT(S->Id, I->Then->Id);
    }
    if (const auto *W = dyn_cast<WhileStmt>(S)) {
      EXPECT_LT(S->Id, W->Body->Id);
    }
  }
}

TEST(ParserTest, ExpressionPrecedence) {
  auto P = parseOk("func main() { int x = 1 + 2 * 3 - 4 / 2; }");
  const auto *Decl = cast<VarDeclStmt>(P->Funcs[0]->Body->Body[0].get());
  AstPrinter Pr;
  EXPECT_EQ(Pr.print(*Decl->Init), "(1 + (2 * 3)) - (4 / 2)");
}

TEST(ParserTest, LogicalOperatorsPrecedence) {
  auto P = parseOk("func main() { int x = 1 < 2 && 3 == 3 || !(4 > 5); }");
  const auto *Decl = cast<VarDeclStmt>(P->Funcs[0]->Body->Body[0].get());
  AstPrinter Pr;
  EXPECT_EQ(Pr.print(*Decl->Init), "((1 < 2) && (3 == 3)) || !(4 > 5)");
}

TEST(ParserTest, UnaryChain) {
  auto P = parseOk("func main() { int x = --1; int y = !!0; }");
  (void)P;
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_TRUE(parseFails("func main() { int ; }"));
  EXPECT_TRUE(parseFails("func main() { x = ; }"));
  EXPECT_TRUE(parseFails("func main() { if i > 0 x = 1; }"));
  EXPECT_TRUE(parseFails("func () { }"));
  EXPECT_TRUE(parseFails("func main() { P(); }"));
  EXPECT_TRUE(parseFails("int a[0]; func main() { }"));
  EXPECT_TRUE(parseFails("func main() { for (int i = 0; i < 3; i = i + 1) "
                          "print(i); }"))
      << "declarations in for initializers are rejected";
}

TEST(ParserTest, ErrorRecoveryReportsMultipleErrors) {
  DiagnosticEngine Diags;
  Parser::parse("func main() { x = ; y = ; }", Diags);
  EXPECT_GE(Diags.errorCount(), 2u);
}

TEST(ParserTest, RoundTripStable) {
  const char *Source = R"(shared int sv;
sem m = 1;
chan c;
func worker(int id)
{
  int i = 0;
  while (i < 10)
  {
    P(m);
    sv = sv + id;
    V(m);
    i = i + 1;
  }
}
func main()
{
  spawn worker(1);
  spawn worker(2);
  print(sv);
}
)";
  DiagnosticEngine Diags;
  auto P1 = Parser::parse(Source, Diags);
  ASSERT_TRUE(P1 != nullptr) << Diags.str();
  AstPrinter Pr;
  std::string Printed1 = Pr.print(*P1);
  auto P2 = Parser::parse(Printed1, Diags);
  ASSERT_TRUE(P2 != nullptr) << Diags.str();
  std::string Printed2 = Pr.print(*P2);
  EXPECT_EQ(Printed1, Printed2) << "pretty-printing must be a fixpoint";
}

// Malformed-input robustness: token streams violating the lexer's usual
// guarantees (hand-built, truncated) must fail with ordinary diagnostics —
// never crash or read out of bounds, even in release builds.
TEST(ParserTest, EmptyTokenVectorParsesAsEmptyProgram) {
  DiagnosticEngine Diags;
  Parser P({}, Diags);
  auto Prog = P.parseProgram();
  ASSERT_TRUE(Prog != nullptr) << Diags.str();
  EXPECT_TRUE(Prog->Globals.empty());
  EXPECT_TRUE(Prog->Funcs.empty());
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(ParserTest, NonEofTerminatedTokenVectorIsDiagnosed) {
  std::vector<Token> Tokens(1);
  Tokens[0].Kind = TokenKind::Identifier;
  Tokens[0].Text = "stray";
  DiagnosticEngine Diags;
  Parser P(std::move(Tokens), Diags);
  auto Prog = P.parseProgram();
  EXPECT_TRUE(Prog == nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ParserTest, NonEofTerminatedDeclSequenceIsRecovered) {
  // A plausible but unterminated stream: `func main ( ) {` — the parser
  // must synthesize Eof, diagnose the missing body, and return cleanly.
  std::vector<Token> Tokens(5);
  Tokens[0].Kind = TokenKind::KwFunc;
  Tokens[1].Kind = TokenKind::Identifier;
  Tokens[1].Text = "main";
  Tokens[2].Kind = TokenKind::LParen;
  Tokens[3].Kind = TokenKind::RParen;
  Tokens[4].Kind = TokenKind::LBrace;
  DiagnosticEngine Diags;
  Parser P(std::move(Tokens), Diags);
  auto Prog = P.parseProgram();
  EXPECT_TRUE(Prog == nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ParserTest, EveryTruncationOfAValidProgramFailsCleanly) {
  const std::string Full = "shared int g[4];\n"
                           "sem lock = 1;\n"
                           "chan c[2];\n"
                           "func worker(int n) {\n"
                           "  P(lock);\n"
                           "  g[n % 4] = g[n % 4] + 1;\n"
                           "  V(lock);\n"
                           "  send(c, n * 2);\n"
                           "}\n"
                           "func main() {\n"
                           "  spawn worker(3);\n"
                           "  int v = recv(c);\n"
                           "  if (v > 0 && g[3] != v) { print(v); }\n"
                           "  else { print(-v); }\n"
                           "}\n";
  for (size_t Len = 0; Len != Full.size(); ++Len) {
    DiagnosticEngine Diags;
    auto Prog = Parser::parse(Full.substr(0, Len), Diags);
    // Either outcome is acceptable (a prefix can be a complete program);
    // a null result must come with diagnostics, never silently.
    if (!Prog) {
      EXPECT_TRUE(Diags.hasErrors()) << "prefix length " << Len;
    }
  }
}

// Round-trip property over a family of generated programs.
class RoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(RoundTripTest, PrintParsePrintIsStable) {
  int N = GetParam();
  std::string Source = "shared int g;\nfunc main() {\n";
  for (int I = 0; I != N; ++I) {
    std::string V = "v" + std::to_string(I);
    Source += "  int " + V + " = " + std::to_string(I) + ";\n";
    Source += "  if (" + V + " % 2 == 0) g = g + " + V + ";\n";
    Source += "  else g = g - " + V + ";\n";
  }
  Source += "  print(g);\n}\n";

  DiagnosticEngine Diags;
  auto P1 = Parser::parse(Source, Diags);
  ASSERT_TRUE(P1 != nullptr) << Diags.str();
  AstPrinter Pr;
  std::string Printed1 = Pr.print(*P1);
  auto P2 = Parser::parse(Printed1, Diags);
  ASSERT_TRUE(P2 != nullptr) << Diags.str();
  EXPECT_EQ(Printed1, Pr.print(*P2));
}

INSTANTIATE_TEST_SUITE_P(Sizes, RoundTripTest,
                         ::testing::Values(1, 3, 8, 20, 50));

} // namespace
